"""Monomials and monomial ideals with exact, arbitrary-precision exponents.

The ambient ring is k[x_0, ..., x_n] for ambient_dim = n + 1; a monomial is
identified with its exponent vector.  A MonomialIdeal stores only the
exponent vectors of its unique minimal generating set, sorted by total
degree and then lexicographically; it is interned, one object per value,
which keeps each fact learnt of it (`_fact`) while the caller holds it;
its powers, like its symbolic powers, are facts keyed by the exponent.
Kernels read and write bare vectors.  `Monomial` objects exist only at
the edges: validated outside input for `MonomialIdeal.make` and
containment witnesses; an ideal renders its generators straight from
their vectors (`rendered_gens`), by the routine `Monomial.render` uses.

Divisibility queries against a fixed set (the containment kernel, which
also answers staircase membership, and the key comparisons of an
intersection) go through one bitset index, in the spirit of Frobby (Roune,
J. Symbolic Comput. 2009): per coordinate the distinct values are
rank-compressed, and over those ranks a Python int holds the bitmask of
the rows whose entry is at most that value.  The rows dividing a point are
the AND of one mask per coordinate, so every exponent stays an exact
integer of any size.  Minimalization, whose set grows, keeps those masks
as Fenwick trees of prefix ORs; products minimalize all pairwise sums so.
The containment kernel answers each (lhs, rhs, s) once, a fact of lhs,
and builds the index of an rhs, its generator columns plus their degrees,
once, a fact of rhs, for every lhs and s asked against it.  It walks the
generators of lhs in canonical order and keeps the per-column ANDs of the
one before, so each generator is asked only from the first column where
it differs from that one, up to the first empty AND.  A general
intersection lists its minimal generators from two kinds of lcm
(`_meet_general`).  Each side's rows are grouped by their key, their
exponents on the variables that side alone uses.  A row b of one side
meets the other's key k only if no row of a lower key divides b on the
shared variables.  If a row of key k does, their lcm, b with k put on the
other side's private variables, is a direct lcm and a minimal generator:
an element of the meet below it lies above a row of b's side, which is b
itself as that side is minimal, so it differs from the lcm only in its
key, and a row of a lower key would have blocked b.  The rows left live
at both keys of a pair of groups make pair lcms.  One index over the
distinct direct lcms drops every pair lcm that one of them divides, and
only the survivors are minimalized: a survivor that is not minimal lies
above a minimal one, which no direct lcm divides.  `intersect` meets
every pair of ideals so, prime powers included.  Powers of a prime power
and the prime steps of a symbolic power never make a dominated
candidate: both go through one prime-power kernel,
`_meet_simplex_power`, (P^m)^t as the zero vector (the unit ideal) met
with P^(mt).  The kernel takes minimal exponent vectors in any order and
returns the minimal generators of the meet unsorted; it holds the
degree-m vectors above each group of generators as a bitmask over ranked
compositions, built once per group (`_upper_set`), so each minimal
generator comes out once, with no scan; parts of vectors are read, and
outputs placed, by `operator.itemgetter` gathers.  Every kernel reads a
mask's set bits through one walk, `_bits`, which reads them off the
mask's binary digits: linear in its width, where clearing one bit at a
time copies the whole int per bit.  `intersect` and `power` sort each
call's output into an ideal; `symbolic_power` chains the kernel over the
prime-power localizations of a connected ideal (all of them, for a
square-free one) and sorts only the end result; a sum on disjoint
variables never reaches the kernel itself.  The scan's square-free draw
(`harness._random_squarefree`) meets its prime family with it, one
degree-1 step per prime.  Nothing else calls the kernel.  Its
integer-keyed memos are the package's only lru_caches.
"""

from __future__ import annotations

import operator
import weakref
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache, reduce, wraps
from itertools import chain
from math import comb

from .errors import DimensionMismatchError


class _Frozen:
    """Base of the package's immutable value types.  A subclass names its
    fields in _fields and stores them in __init__ by `_store`, straight
    into the instance dict, cheaper than object.__setattr__.  Two values
    are equal when they have the same class and equal fields, and the
    hash is that of the field tuple, read by one attrgetter built per
    subclass.  Assigning or deleting an attribute raises AttributeError;
    cached_property and `_fact` write the instance dict directly."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def _store(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _fact(fn):
    """fn(obj, *key), computed once and kept in obj's own dict while obj
    lives.  A fact may take no key (an invariant of obj); a key ends in a
    natural number, looked up only as an exact int.  A hit is one dict
    probe; a call that raises keeps nothing."""
    name = fn.__name__

    @wraps(fn)
    def read(obj, *key):
        if key and key[-1].__class__ is not int:  # 2.0 is refused like 2.5
            return fn(obj, *key)
        try:
            return obj.__dict__[name][key]
        except KeyError:
            pass
        value = fn(obj, *key)
        obj.__dict__.setdefault(name, {})[key] = value
        return value
    return read


def _naturals(values: Iterable, what: str) -> tuple[int, ...]:
    """The entries as non-negative ints, read through operator.index, so a
    float, a string or a negative entry raises ValueError, never rounds."""
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"non-integer {what} in {values!r}") from None
    if out and min(out) < 0:
        raise ValueError(f"negative {what} in {out}")
    return out


def _ambient_dim(value) -> int:
    """A number of variables, read as every constructor reads it: a
    natural number of at least 1, else ValueError."""
    (dim,) = _naturals((value,), "ambient_dim")
    if dim < 1:
        raise ValueError("ambient_dim must be at least 1")
    return dim


def _variable_names(names: Sequence[str] | None, dim: int) -> Sequence[str]:
    """The names to render dim variables with: x0, x1, ... by default, and
    a given list only when it has one name per variable."""
    if names is None:
        return [f"x{i}" for i in range(dim)]
    if len(names) != dim:
        raise ValueError(f"{len(names)} variable names for {dim} variables")
    return names


def _render_vector(exps: tuple[int, ...], names: Sequence[str]) -> str:
    """An exponent vector as a product of powers of the named variables,
    "1" for the zero vector."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"


class Monomial(_Frozen):
    """An exponent vector of non-negative integers, none rounded or
    converted.  The all-zero vector is the monomial 1."""

    _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        self._store(_naturals(exponents, "exponent"))

    def render(self, names: Sequence[str] | None = None) -> str:
        return _render_vector(self.exponents, _variable_names(names, len(self.exponents)))

    def __str__(self):
        return self.render()


class MonomialIdeal(_Frozen):
    """A monomial ideal, held by the exponent vectors of its minimal
    generators in canonical (degree, lex) order; equal ideals are one object.

    Built by `make` (from outside `Monomial`s), `zero`, `unit`, and inside
    the package by `_from_vectors` (which minimalizes candidates) and
    `_canonical` (which sorts vectors minimal by construction).  vectors
    == () is the zero ideal and the single zero vector the unit ideal.
    `gens` derives the same generators as `Monomial`s.
    """

    _fields = ("ambient_dim", "vectors")
    _interned = weakref.WeakValueDictionary()  # (ambient_dim, vectors) -> the live ideal

    def __new__(cls, ambient_dim: int, vectors: tuple[tuple[int, ...], ...]):
        key = ambient_dim, vectors
        if (self := cls._interned.get(key)) is None:
            self = cls._interned[key] = object.__new__(cls)
            self.__dict__.update(ambient_dim=ambient_dim, vectors=vectors, _hash=hash(key))
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # a copy or an unpickled ideal is the interned one, with no facts
        return MonomialIdeal, (self.ambient_dim, self.vectors)

    @staticmethod
    def make(ambient_dim: int, gens: Iterable[Monomial]) -> MonomialIdeal:
        gens = list(gens)
        ambient_dim = _ambient_dim(ambient_dim)
        for g in gens:
            if len(g.exponents) != ambient_dim:
                raise DimensionMismatchError(
                    f"generator {g} has {len(g.exponents)} exponents, expected {ambient_dim}")
        return _from_vectors(ambient_dim, [g.exponents for g in gens])

    @staticmethod
    def zero(ambient_dim: int) -> MonomialIdeal:
        return MonomialIdeal(_ambient_dim(ambient_dim), ())

    @staticmethod
    def unit(ambient_dim: int) -> MonomialIdeal:
        ambient_dim = _ambient_dim(ambient_dim)
        return MonomialIdeal(ambient_dim, ((0,) * ambient_dim,))

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, self.vectors))

    @property
    def is_zero(self) -> bool:
        return not self.vectors

    @property
    def is_unit(self) -> bool:
        return len(self.vectors) == 1 and not any(self.vectors[0])

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @cached_property
    def simplex_power(self) -> tuple[tuple[int, ...], int] | None:
        """(sorted S, m) when this ideal is P^m for the prime P on S, else None."""
        return as_prime_power(self.vectors)

    def rendered_gens(self, names: Sequence[str] | None = None) -> list[str]:
        """Each minimal generator rendered from its vector as
        `Monomial.render` renders it, with no `Monomial` built."""
        names = _variable_names(names, self.ambient_dim)
        return [_render_vector(v, names) for v in self.vectors]

    def render(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(self.rendered_gens(names)) + ")"

    def __str__(self):
        return self.render()


def as_prime_power(vectors: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], int] | None:
    """Detects distinct exponent vectors that generate P^m for a monomial
    prime P.

    Those are exactly *all* monomials of one degree m >= 1 in some variable
    subset S: equal degrees, support union S, and the full count
    C(m+|S|-1, |S|-1) of vectors.  Returns (sorted S, m), or None.
    """
    if not vectors:
        return None
    m = sum(vectors[0])
    if m < 1 or any(sum(v) != m for v in vectors):
        return None
    s_vars = sorted({i for v in vectors for i, e in enumerate(v) if e})
    if len(vectors) != comb(m + len(s_vars) - 1, len(s_vars) - 1):
        return None
    return tuple(s_vars), m


def require_proper(I: MonomialIdeal):
    if I.is_zero or I.is_unit:
        raise ValueError("need a proper non-zero ideal")


def _check_same_ring(I: MonomialIdeal, J: MonomialIdeal):
    if I.ambient_dim != J.ambient_dim:
        raise DimensionMismatchError("ideals live in different rings")


# ---------------------------------------------------------------------------
# vector kernels


def _prefix_masks(column: Sequence[int]) -> tuple[list[int], list[int]]:
    """The sorted distinct values of a column and the bitmasks of the rows
    (bit j for row j) whose entry is at most each: masks[r] for the r
    smallest values, so masks[bisect_right(values, q)] is the mask of the
    rows at most q, 0 below every value."""
    rows_at: dict[int, int] = {}
    for j, x in enumerate(column):
        rows_at[x] = rows_at.get(x, 0) | 1 << j
    values = sorted(rows_at)
    masks, acc = [0], 0
    for x in values:
        acc |= rows_at[x]
        masks.append(acc)
    return values, masks


def _rows_below(index, point) -> int:
    """Bitmask of the indexed rows lying componentwise below `point`: the
    AND over columns of the mask at the point's rank (-1, every row, when
    there is no column)."""
    hit = -1
    for (values, masks), q in zip(index, point):
        hit &= masks[bisect_right(values, q)]
        if not hit:
            return 0
    return hit


def _masks_at(index, point) -> list[int]:
    """Per column of the index, the mask of the rows at most the point's
    entry there."""
    return [masks[bisect_right(values, q)] for (values, masks), q in zip(index, point)]


def minimal_vectors(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Divisibility-minimal subset, sorted by (total degree, lex).

    Candidates are visited in plain tuple order: a proper divisor of a
    vector is lexicographically smaller, so it comes earlier, and a
    candidate is kept unless some kept vector divides it.  The kept
    vectors, already in tuple order, need only a stable sort by degree to
    be canonical.  They sit in a divisibility index: the exponent values
    are rank-compressed, and per coordinate a Fenwick tree over the ranks
    holds prefix ORs of the kept bits, so both the query and the insertion
    of a kept vector cost O(log V) big-int ORs per coordinate.
    """
    uniq = sorted(set(vectors))
    values = sorted(set(chain.from_iterable(uniq)))
    rank = dict(zip(values, range(1, len(values) + 1)))
    size = len(values) + 1
    trees = [[0] * size for _ in uniq[0]] if uniq else []
    kept: list[tuple[int, ...]] = []
    full = 0  # one bit per kept vector
    for v in uniq:
        if full:
            hit = full
            for tree, x in zip(trees, v):
                r, below = rank[x], 0
                while r:
                    below |= tree[r]
                    r &= r - 1
                hit &= below
                if not hit:
                    break
            if hit:
                continue
        bit = 1 << len(kept)
        full |= bit
        kept.append(v)
        for tree, x in zip(trees, v):
            r = rank[x]
            while r < size:
                tree[r] |= bit
                r += r & -r
    kept.sort(key=sum)
    return kept


@lru_cache(maxsize=512)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All ways to write `total` as an ordered sum of `parts` naturals."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# ideal operations


def contains(I: MonomialIdeal, m: Monomial) -> bool:
    """Ideal membership: some minimal generator divides m."""
    if len(m.exponents) != I.ambient_dim:
        raise DimensionMismatchError("monomial and ideal disagree on ring")
    return _in_staircase(I, m.exponents)


def _from_vectors(dim: int, vectors: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal generated by candidate vectors, minimalized and sorted."""
    return MonomialIdeal(dim, tuple(minimal_vectors(vectors)))


def _gather(positions: Sequence[int]):
    """operator.itemgetter over positions, which gives the tuple of a
    tuple's entries there: one position or none gathers a slice, so that
    it is a tuple too."""
    if len(positions) == 1:
        return operator.itemgetter(slice(positions[0], positions[0] + 1))
    return operator.itemgetter(*positions) if positions else operator.itemgetter(slice(0))


@lru_cache(maxsize=512)
def _step_gathers(dim: int, s_vars: tuple[int, ...]):
    """The gathers of a prime step on s_vars: a vector's part on S, its
    key (its part off S), and the vector of a key and a composition
    (k + w, in that order)."""
    rest = [i for i in range(dim) if i not in s_vars]
    return (_gather(s_vars), _gather(rest),
            _gather(sorted(range(dim), key=[*rest, *s_vars].__getitem__)))


def _not_above(vectors, lows) -> list[tuple[int, ...]]:
    """The vectors that lie above no member of lows."""
    index = [_prefix_masks(column) for column in zip(*lows)]
    return [v for v in vectors if not _rows_below(index, v)]


@lru_cache(maxsize=4096)
def _upper_set(m: int, lows: tuple[tuple[int, ...], ...]) -> int:
    """Bitmask, over the ranks of `_compositions(m, h)`, of the degree-m
    vectors that lie componentwise above some member of `lows`, a
    non-empty antichain of h-vectors of degree at most m in tuple order.

    Compositions are in lex order, so those with first part f fill one
    block, which starts after the C(m+h-1, h-1) - C(m-f+h-1, h-1) with a
    smaller first part; inside it the rest ranks in `_compositions(m-f,
    h-1)`, and a vector lies above a low exactly when its rest lies above
    the rest of a low of first part at most f.  Those rests of degree at
    most m - f, minimalized, give the block by one recursion.  Going up in
    f, the rests of the lows of first part f join; an earlier rest of
    degree above m - f leaves, and so does each other one above a new
    rest (`_not_above`).  A new rest is never above an earlier one, or its
    low would be above that low.  So each level handles each rest about
    once, however many lows there are.  At h = 2 each block is one
    vector, and the mask is a union of intervals.
    """
    h = len(lows[0])
    total = comb(m + h - 1, h - 1)
    if h == 1 or not any(lows[0]):  # (m) lies above the low; the zero vector below all
        return (1 << total) - 1
    if h == 2:  # (f, m - f) ranks f, and lies above (a, b) when a <= f <= m - b
        return reduce(operator.or_, [((1 << m - a - b + 1) - 1) << a for a, b in lows])
    firsts = list(map(operator.itemgetter(0), lows))
    tails = list(map(operator.itemgetter(slice(1, None)), lows))
    mask, rests, top, j = 0, (), -1, 0  # top: the largest degree of a rest
    for first in range(firsts[0], m + 1):
        room, k = m - first, bisect_right(firsts, first, j)
        if k > j or top > room:
            new, j = tails[j:k], k  # of degree at most room, as the lows are at most m
            rests = [r for r in rests if sum(r) <= room]
            if rests and new:
                rests = _not_above(rests, new)
            rests = tuple(sorted(rests + new))
            top = max(map(sum, rests), default=-1)
        if rests:
            mask |= _upper_set(room, rests) << total - comb(room + h - 1, h - 1)
        elif j == len(lows):
            break
    return mask


def _meet_simplex_power(vectors: Iterable[tuple[int, ...]], dim: int, s_vars,
                        m: int) -> list[tuple[int, ...]]:
    """The minimal generators, unsorted, of the ideal that the minimal
    exponent vectors `vectors` (in any order) generate, met with P^m where
    P is the prime on s_vars; built with no dominance scan.

    A generator of S-degree above m is kept as it is: it neither divides
    nor is divided by a monomial of S-degree m.  The others are grouped by
    their exponents k outside S, and U_k is the set of degree-m vectors w
    on S above some member of group k, built once per group from the
    group's parts on S (`_upper_set`), which are an antichain since the
    inputs are minimal.  A candidate u dividing k + w has S-degree m, so
    its S-part is w and its key is <= k; hence k + w is minimal exactly
    when w lies in no U_k' with k' < k.  Each input's S-part and key, and
    each output from its key and composition, is one C-level gather
    (`_step_gathers`).
    """
    s_part, key_of, place = _step_gathers(dim, tuple(s_vars))
    out: list[tuple[int, ...]] = []
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for g in vectors:
        low = s_part(g)
        if sum(low) > m:
            out.append(g)
        else:
            groups.setdefault(key_of(g), []).append(low)
    keys = sorted(groups)
    keys.sort(key=sum)
    uppers = [_upper_set(m, tuple(sorted(groups[k]))) for k in keys]
    index = [_prefix_masks(column) for column in zip(*keys)]
    comps = _compositions(m, len(s_vars))
    for n, k in enumerate(keys):
        mask = uppers[n]
        below = _rows_below(index, k) & ((1 << n) - 1)  # every k' < k sorts first
        if below:
            mask &= ~reduce(operator.or_, map(uppers.__getitem__, _bits(below)))
        out += [place(k + comps[j]) for j in _bits(mask)]
    return out


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, lowest first, read off the
    runs of zeros between the ones of its binary digits: linear in the
    mask's width."""
    out, i = [], -1
    for zeros in bin(mask)[:1:-1].split("1")[:-1]:
        i += len(zeros) + 1
        out.append(i)
    return out


def _key_groups(columns: Sequence[Sequence[int]], key_vars: Sequence[int]):
    """The rows of a set of vectors, given by its columns, grouped by their
    key, their exponents on key_vars: the distinct keys, and for each the
    bitmask of its rows and that of the rows whose key lies strictly
    below it."""
    full = (1 << len(columns[0])) - 1
    if not key_vars:
        return [()], [full], [0]
    index = [_prefix_masks(columns[i]) for i in key_vars]
    rows_of: dict[tuple[int, ...], int] = {}
    for j, key in enumerate(zip(*(columns[i] for i in key_vars))):
        rows_of[key] = rows_of.get(key, 0) | 1 << j
    keys = list(rows_of)
    return keys, list(rows_of.values()), [(_rows_below(index, k) & full) ^ rows_of[k]
                                          for k in keys]


def _live_rows(vectors, divisors, others, rows, lowers, out: list) -> list[int]:
    """For each key of the groups of `others`, given by the bitmasks of its
    rows and of the rows of lower keys, the bitmask of the vectors that
    meet its rows pair by pair.  divisors[j] is the bitmask of the rows of
    `others` whose shared part divides that of vectors[j].  If a row of a
    lower key is one, vectors[j] makes nothing at this key; if a row of
    this key is one, their lcm goes to out and is all it makes."""
    live = []
    for own, lower in zip(rows, lowers):
        mask = 0
        for j, (v, d) in enumerate(zip(vectors, divisors)):
            if d & lower:
                continue
            if d & own:
                d &= own
                out.append(tuple(map(max, others[(d & -d).bit_length() - 1], v)))
            else:
                mask |= 1 << j
        live.append(mask)
    return live


def _meet_parts(avecs: Sequence[tuple[int, ...]],
                bvecs: Sequence[tuple[int, ...]]) -> tuple[list, list]:
    """(directs, survivors) for the meet of the ideals A and B of two sets
    of minimal exponent vectors: the distinct direct lcms, each a minimal
    generator, and the pair lcms that no direct lcm divides, which hold
    the other minimal generators.

    Split the variables of the supports into T, those of both, and the
    private ones X of A and Y of B.  A row a of A has key a_X, and a row b
    of B key b_Y.  A minimal generator h of the meet is lcm(a, b) = (h_X,
    max(a_T, b_T), h_Y) for rows a of key h_X and b of key h_Y.  If b_T
    is divisible by a'_T for a row a' of a key below h_X, then (a'_X, b_T,
    b_Y) is in the meet strictly below h: b makes nothing at key h_X.  If
    a row of key h_X does and none of a lower key, c = (h_X, b_T, b_Y) is
    a direct lcm, and a minimal generator: a g <= c in the meet lies above
    a row of B, which is below b, so is b, as B is minimal; so g differs
    from c only on X, and were g != c, the row of A below g would have a
    key below h_X dividing b on T.  The same holds with A and B swapped.
    The rows left live at both keys of a pair make pair lcms, of which
    only those that no direct lcm divides are built.  With no private
    variables there is one empty key per side, so a row of one side
    inside the other comes out as it is and meets nothing.
    """
    a_cols, b_cols = list(zip(*avecs)), list(zip(*bvecs))
    a_on = {i for i, col in enumerate(a_cols) if any(col)}
    b_on = {i for i, col in enumerate(b_cols) if any(col)}
    shared, x_vars, y_vars = sorted(a_on & b_on), sorted(a_on - b_on), sorted(b_on - a_on)
    a_keys, a_rows, a_lower = _key_groups(a_cols, x_vars)
    b_keys, b_rows, b_lower = _key_groups(b_cols, y_vars)
    t_of = _gather(shared)
    a_index = [_prefix_masks(a_cols[i]) for i in shared]
    b_index = [_prefix_masks(b_cols[i]) for i in shared]
    directs: list[tuple[int, ...]] = []
    live_b = _live_rows(bvecs, [_rows_below(a_index, t_of(v)) for v in bvecs],
                        avecs, a_rows, a_lower, directs)
    live_a = _live_rows(avecs, [_rows_below(b_index, t_of(v)) for v in avecs],
                        bvecs, b_rows, b_lower, directs)
    # One index over the distinct directs screens the pair lcms.  A direct
    # divides the lcm of a pair at keys (k, l) when it lies below k on X,
    # below l on Y, and below the lcm on T, where the masks of lcm(a, b)
    # are the ORs of a's and b's; each live row's masks on T are read once.
    directs = list(set(directs))
    d_cols = list(zip(*directs)) or [()] * len(a_cols)  # no direct: every mask is 0
    t_index, x_index, y_index = ([_prefix_masks(d_cols[i]) for i in on]
                                 for on in (shared, x_vars, y_vars))
    full = (1 << len(directs)) - 1
    x_below = [_rows_below(x_index, k) & full for k in a_keys]
    y_below = [_rows_below(y_index, k) & full for k in b_keys]
    a_t: dict[int, tuple] = {}
    b_t: dict[int, tuple] = {}
    survivors: list[tuple[int, ...]] = []
    for rows_k, b_live, below_k in zip(a_rows, live_b, x_below):
        if not b_live:
            continue
        for rows_l, a_live, below_l in zip(b_rows, live_a, y_below):
            a_mask, b_mask = a_live & rows_k, b_live & rows_l
            if not (a_mask and b_mask):
                continue
            block, a_parts = below_k & below_l, []
            for i in _bits(a_mask):
                if i not in a_t:
                    a_t[i] = avecs[i], _masks_at(t_index, t_of(avecs[i]))
                a_parts.append(a_t[i])
            for j in _bits(b_mask):
                if j not in b_t:
                    b_t[j] = bvecs[j], _masks_at(t_index, t_of(bvecs[j]))
                b, b_masks = b_t[j]
                for a, a_masks in a_parts:
                    hit = block
                    for x, y in zip(a_masks, b_masks):
                        hit &= x | y
                        if not hit:
                            break
                    if not hit:
                        survivors.append(tuple(map(max, a, b)))
    return directs, survivors


def _meet_general(avecs: Sequence[tuple[int, ...]],
                  bvecs: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal generators, unsorted, of the meet of the ideals of two
    sets of minimal exponent vectors: the direct lcms of `_meet_parts` and
    the minimal pair lcms that survive them.  A minimal pair lcm is
    divided by no direct lcm but itself, and a survivor that is not
    minimal lies above a minimal generator, which is then a survivor too;
    so only the survivors are minimalized."""
    directs, survivors = _meet_parts(avecs, bvecs)
    return directs + minimal_vectors(survivors) if survivors else directs


def _canonical(dim: int, minimal: list[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of a minimal set of exponent vectors, sorted in place into
    canonical (degree, lex) order: a plain sort, then a stable sort by
    degree, neither of which calls a Python function per vector."""
    minimal.sort()
    minimal.sort(key=sum)
    return MonomialIdeal(dim, tuple(minimal))


def _trivial_combine(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal | None:
    """The zero ideal if I or J is, else the other if one is the unit ideal
    (the identity of both intersection and product); None otherwise."""
    _check_same_ring(I, J)
    if I.is_zero or J.is_zero:
        return MonomialIdeal.zero(I.ambient_dim)
    if I.is_unit:
        return J
    if J.is_unit:
        return I
    return None


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if (trivial := _trivial_combine(I, J)) is not None:
        return trivial
    return _canonical(I.ambient_dim, _meet_general(I.vectors, J.vectors))


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if (trivial := _trivial_combine(I, J)) is not None:
        return trivial
    return _from_vectors(I.ambient_dim, [tuple(map(operator.add, a, b))
                                         for a in I.vectors for b in J.vectors])


@_fact
def power(I: MonomialIdeal, t: int) -> MonomialIdeal:
    """t-th power, a fact of I.  For a prime power, (P^m)^t = P^(mt) is
    every degree-mt monomial on P's variables, listed directly by the
    prime-power kernel: on powers of the maximal ideal, a desk input, m^t
    for (d, t) = (4, 10), (6, 6), (8, 5) took 0.1-0.3 ms that way against
    4.0-7.4 ms by repeated products (min of 3, 2 vCPU VM, Python 3.11).
    Any other I^t is I^(t-1) * I, minimalized; the powers below t are read
    first, lowest up, so each one I lacks is one product with the one
    before, and no call recurses more than one level however large t is."""
    if t.__class__ is not int or t < 0:
        (t,) = _naturals((t,), "exponent")
    if t == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    if I.is_zero or I.is_unit or t == 1:
        return I
    if I.simplex_power is not None:
        s_vars, m = I.simplex_power
        dim = I.ambient_dim
        return _canonical(dim, _meet_simplex_power([(0,) * dim], dim, s_vars, m * t))
    for n in range(2, t):
        power(I, n)
    return multiply(power(I, t - 1), I)


@_fact
def _divisor_index(rhs: MonomialIdeal) -> tuple:
    """The divisibility index over the generators of rhs, with their
    degree as one more column: a point (*f, deg f - s) lies above the row
    of h exactly when h divides f with deg f - deg h >= s."""
    vectors = rhs.vectors
    columns = list(zip(*vectors)) or [()] * rhs.ambient_dim  # the zero ideal has no rows
    return tuple(_prefix_masks(col) for col in (*columns, list(map(sum, vectors))))


def _in_staircase(I: MonomialIdeal, point: Sequence[int]) -> bool:
    """Whether some minimal generator of I divides the integer point: the
    containment kernel's question at s = 0, asked of its index."""
    return bool(_rows_below(_divisor_index(I), (*point, sum(point))))


def _first_outside(index, vectors: Iterable[tuple[int, ...]], s: int) -> tuple[int, ...] | None:
    """The first of `vectors` with no row of the divisor index at or below
    (*f, deg f - s), or None.  The walk keeps, column by column, the AND
    of the masks for the vector before, and starts each vector at the
    first column where it differs from that one: vectors in (degree, lex)
    order share long prefixes.  The degree column is last in the index, so
    its mask is looked up once per degree and met with the shared AND.  A
    vector is outside as soon as an AND is empty."""
    width = len(index) - 1
    degrees, degree_masks = index[width]
    hits = [-1] * (width + 1)  # hits[i]: the AND over the columns before i
    prev, gap, top = (-1,) * width, None, 0  # prev differs from f at column 0
    for f in vectors:
        g = sum(f) - s
        if g != gap:
            gap, top = g, degree_masks[bisect_right(degrees, g)]
        i = 0
        while f[i] == prev[i]:  # distinct vectors differ before the end
            i += 1
        hit = hits[i]
        while i < width:
            values, masks = index[i]
            hit &= masks[bisect_right(values, f[i])]
            if not hit:
                return f
            i += 1
            hits[i] = hit
        if not hit & top:
            return f
        prev = f
    return None


@_fact
def containment_witness(lhs: MonomialIdeal, rhs: MonomialIdeal, s: int) -> Monomial | None:
    """The first minimal generator of lhs, in canonical order, outside
    m^s * rhs, where m is the maximal ideal of the variables, as a
    Monomial; None when lhs <= m^s * rhs.  s = 0 is plain containment.

    This is the only containment kernel: every containment check reduces
    membership of f in m^s * rhs to "some minimal generator h of rhs
    divides f with deg f - deg h >= s", which is exact integer arithmetic;
    its index also answers point membership at s = 0 (`_in_staircase`).
    The generators of lhs are walked in canonical order against the index
    of rhs (`_first_outside`), each reusing the per-column ANDs of the
    prefix it shares with the one before, up to the first one outside.
    Each (rhs, s) is answered once, a fact of lhs; s = 1.0 is refused like
    1.5, as past 2^53 a float gap would round the degree test.
    """
    _check_same_ring(lhs, rhs)
    (s,) = _naturals((s,), "exponent")
    f = _first_outside(_divisor_index(rhs), lhs.vectors, s)
    return None if f is None else Monomial(f)


def subset(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Exact containment I <= J (every minimal generator of I lies in J)."""
    return containment_witness(I, J, 0) is None


def radical(I: MonomialIdeal) -> MonomialIdeal:
    """Cap every exponent at 1, then minimalize."""
    if I.is_zero:
        return I
    return _from_vectors(I.ambient_dim,
                         [tuple(min(e, 1) for e in g) for g in I.vectors])


@_fact
def is_squarefree(I: MonomialIdeal) -> bool:
    return all(e <= 1 for g in I.vectors for e in g)


def _pure_powers(dim: int, powers: Iterable[tuple[int, int]]) -> MonomialIdeal:
    """The ideal of x_v^e, v distinct: no one divides another, so they are minimal."""
    return _canonical(dim, [tuple(e if j == v else 0 for j in range(dim)) for v, e in powers])


def maximal_ideal(ambient_dim: int) -> MonomialIdeal:
    dim = _ambient_dim(ambient_dim)
    return _pure_powers(dim, [(v, 1) for v in range(dim)])
