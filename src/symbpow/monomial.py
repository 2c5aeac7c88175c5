"""Monomials and monomial ideals with exact, arbitrary-precision exponents.

The ambient ring is k[x_0, ..., x_n] for ambient_dim = n + 1; a monomial is
identified with its exponent vector.  A MonomialIdeal stores only the
exponent vectors of its unique minimal generating set, sorted by total
degree and then lexicographically, so equal ideals are structurally equal;
every kernel reads and writes such bare vectors.  `Monomial` objects exist
only at the edges: validated outside input for `MonomialIdeal.make`,
containment witnesses, and rendering through the derived `gens`.

Divisibility scans (minimalization, the containment kernel, the key
comparisons of an intersection) go through one bitset
divisibility index, in the spirit of Frobby (Roune, J. Symbolic Comput.
2009): per coordinate the distinct values are rank-compressed, and over
those ranks a Python int holds the bitmask of the rows whose entry is at
most that value.  The rows dividing a point are the AND of one such mask
per coordinate, so every exponent stays an exact integer of any size.
Products minimalize all pairwise sums that way.  A general intersection
forms an lcm only for the pairs that can give a minimal generator
(`_meet_candidates`): a generator of one side inside the other is one
already, and the others are grouped by their exponents on the variables
their side alone uses, so that a generator a lower group divides on the
shared variables makes no candidate there; only what is left is
minimalized.  Powers of a prime power and intersections with one never
make a dominated candidate: both go through one prime-power kernel,
`_meet_simplex_power`, (P^m)^t as the zero vector (the unit ideal) met
with P^(mt).  The kernel takes minimal exponent vectors in any order and
returns the minimal generators of the meet unsorted; it holds the
degree-m part of each group of generators as a bitmask over ranked
compositions, so each minimal generator comes out once, with no scan.
`intersect` and `power` sort each call's output into an ideal;
`symbolic_power` chains the kernel over the prime-power localizations of
an ideal (all of them, for a square-free ideal) and sorts only the end
result.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from math import comb

from .errors import DimensionMismatchError


class _Frozen:
    """Base of the package's immutable value types.  A subclass names its
    fields in _fields and stores them in __init__ straight into the
    instance dict, which is cheaper than object.__setattr__.  Two values
    are equal when they have the same class and equal fields, and the
    hash is that of the field tuple, read by one attrgetter built per
    subclass.  The hash is computed once per instance and kept in the
    instance dict: an lru_cache keyed by an ideal or a polyhedron would
    otherwise hash every generator again on each lookup.  Assigning or
    deleting an attribute raises AttributeError; cached_property still
    works, as it writes the instance dict too."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._values(self))
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Monomial(_Frozen):
    """An exponent vector of non-negative integers, none rounded or
    converted.  The all-zero vector is the monomial 1."""

    _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        try:
            exps = tuple(map(operator.index, exponents))
        except TypeError:
            raise ValueError(f"non-integer exponent in {exponents!r}") from None
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        self.__dict__["exponents"] = exps

    def render(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(len(self.exponents))]
        parts = []
        for name, e in zip(names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self):
        return self.render()


class MonomialIdeal(_Frozen):
    """A monomial ideal, held by the exponent vectors of its minimal
    generators in canonical (degree, lex) order.

    Built by `make` (from outside `Monomial`s), `zero`, `unit`, and inside
    the package by `_from_vectors` (which minimalizes candidates) and
    `_canonical` (which sorts vectors minimal by construction).  vectors
    == () is the zero ideal and the single zero vector the unit ideal.
    `gens` derives the same generators as `Monomial`s.
    """

    _fields = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors: tuple[tuple[int, ...], ...]):
        fields = self.__dict__
        fields["ambient_dim"] = ambient_dim
        fields["vectors"] = vectors

    @staticmethod
    def make(ambient_dim: int, gens: Iterable[Monomial]) -> MonomialIdeal:
        gens = list(gens)
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be at least 1")
        for g in gens:
            if len(g.exponents) != ambient_dim:
                raise DimensionMismatchError(
                    f"generator {g} has {len(g.exponents)} exponents, expected {ambient_dim}")
        return _from_vectors(ambient_dim, [g.exponents for g in gens])

    @staticmethod
    def zero(ambient_dim: int) -> MonomialIdeal:
        return MonomialIdeal(ambient_dim, ())

    @staticmethod
    def unit(ambient_dim: int) -> MonomialIdeal:
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

    def render(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(g.render(names) for g in self.gens) + ")"

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
    """The sorted distinct values of a column and, for each, the bitmask of
    the rows (bit j for row j) whose entry is at most that value."""
    rows_at: dict[int, int] = {}
    for j, x in enumerate(column):
        rows_at[x] = rows_at.get(x, 0) | 1 << j
    values = sorted(rows_at)
    masks, acc = [], 0
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
        r = bisect_right(values, q)
        if not r:
            return 0
        hit &= masks[r - 1]
        if not hit:
            return 0
    return hit


def _canonical_key(v: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Canonical generator order: total degree, then lexicographic."""
    return sum(v), v


def minimal_vectors(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Divisibility-minimal subset, sorted by (total degree, lex).

    Candidates are visited in plain tuple order: a proper divisor of a
    vector is lexicographically smaller, so it comes earlier, and a
    candidate is kept unless some kept vector divides it.  Only the kept
    vectors are sorted canonically.  They sit in a divisibility index: the
    exponent values are rank-compressed, and per coordinate a Fenwick tree
    over the ranks holds prefix ORs of the kept bits, so both the query and
    the insertion of a kept vector cost O(log V) big-int ORs per coordinate.
    """
    uniq = sorted(set(vectors))
    values = sorted(set(itertools.chain.from_iterable(uniq)))
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
    kept.sort(key=_canonical_key)
    return kept


def _any_divisor_mask(targets: Sequence[tuple[int, ...]],
                      divisors: Sequence[tuple[int, ...]], min_gap: int = 0) -> list[bool]:
    """For each target, is there a divisor with degree gap >= min_gap?

    One index over the divisors, with their degree as one more column,
    answers each target t by the columns of t and deg(t) - min_gap.
    """
    index = [_prefix_masks(col) for col in (*zip(*divisors), list(map(sum, divisors)))]
    return [bool(_rows_below(index, (*t, sum(t) - min_gap))) for t in targets]


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


def above_some(vectors: Iterable[Sequence[int]], point: Sequence) -> bool:
    """Whether some vector lies componentwise at or below `point`, whose
    entries may be any exact numbers: membership in the staircase."""
    return any(all(map(operator.le, g, point)) for g in vectors)


def contains(I: MonomialIdeal, m: Monomial) -> bool:
    """Ideal membership: some minimal generator divides m."""
    if len(m.exponents) != I.ambient_dim:
        raise DimensionMismatchError("monomial and ideal disagree on ring")
    return above_some(I.vectors, m.exponents)


def _from_vectors(dim: int, vectors: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal generated by candidate vectors, minimalized and sorted."""
    return MonomialIdeal(dim, tuple(minimal_vectors(vectors)))


@lru_cache(maxsize=4096)
def _upper_mask(m: int, low: tuple[int, ...]) -> int:
    """Bitmask, over the ranks of `_compositions(m, len(low))`, of the
    degree-m vectors that lie componentwise above `low`.

    Compositions are in lex order, so those with first part f fill one
    block, which starts after the C(m+h-1, h-1) - C(m-f+h-1, h-1) with a
    smaller first part; inside it the rest ranks in `_compositions(m-f, h-1)`.
    """
    h = len(low)
    if h == 1:
        return int(low[0] <= m)
    if h == 2:  # the rank is the first part
        top = m - low[1]
        return (1 << top + 1) - (1 << low[0]) if low[0] <= top else 0
    total = comb(m + h - 1, h - 1)
    mask = 0
    for first in range(low[0], m - sum(low[1:]) + 1):
        offset = total - comb(m - first + h - 1, h - 1)
        mask |= _upper_mask(m - first, low[1:]) << offset
    return mask


def _meet_simplex_power(vectors: Iterable[tuple[int, ...]], dim: int, s_vars,
                        m: int) -> list[tuple[int, ...]]:
    """The minimal generators, unsorted, of the ideal that the minimal
    exponent vectors `vectors` (in any order) generate, met with P^m where
    P is the prime on s_vars; built with no dominance scan.

    A generator of S-degree above m is kept as it is: it neither divides
    nor is divided by a monomial of S-degree m.  The others are grouped by
    their exponents k outside S, and U_k is the set of degree-m vectors w
    on S above some member of group k.  A candidate u dividing k + w has
    S-degree m, so its S-part is w and its key is <= k; hence k + w is
    minimal exactly when w lies in no U_k' with k' < k.
    """
    rest = [i for i in range(dim) if i not in s_vars]
    out: list[tuple[int, ...]] = []
    groups: dict[tuple[int, ...], int] = {}
    for g in vectors:
        low = tuple(g[i] for i in s_vars)
        if sum(low) > m:
            out.append(g)
            continue
        key = tuple(g[i] for i in rest)
        groups[key] = groups.get(key, 0) | _upper_mask(m, low)
    keys = sorted(groups, key=_canonical_key)
    index = [_prefix_masks(col) for col in zip(*keys)]
    comps = _compositions(m, len(s_vars))
    for n, k in enumerate(keys):
        mask = groups[k]
        below = _rows_below(index, k) & ((1 << n) - 1)  # every k' < k sorts before k
        while below:
            low_bit = below & -below
            below ^= low_bit
            mask &= ~groups[keys[low_bit.bit_length() - 1]]
        v = [0] * dim
        for i, e in zip(rest, k):
            v[i] = e
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            for i, e in zip(s_vars, comps[low_bit.bit_length() - 1]):
                v[i] = e
            out.append(tuple(v))
    return out


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low_bit = mask & -mask
        mask ^= low_bit
        out.append(low_bit.bit_length() - 1)
    return out


def _key_groups(columns: Sequence[Sequence[int]], key_vars: Sequence[int]):
    """The rows of a set of vectors, given by its columns, grouped by their
    key, their exponents on key_vars: for each distinct key the bitmask of
    its rows, and the bitmask of the rows whose key lies strictly below it."""
    full = (1 << len(columns[0])) - 1
    if not key_vars:
        return [full], [0]
    index = [_prefix_masks(columns[i]) for i in key_vars]
    rows_of: dict[tuple[int, ...], int] = {}
    for j, key in enumerate(zip(*(columns[i] for i in key_vars))):
        rows_of[key] = rows_of.get(key, 0) | 1 << j
    return (list(rows_of.values()),
            [(_rows_below(index, k) & full) ^ rows for k, rows in rows_of.items()])


def _live_rows(vectors, divisors, others, groups, out: list) -> list[int]:
    """For each key of the groups of `others`, the bitmask of the vectors
    that meet its rows pair by pair.  divisors[j] is the bitmask of the
    rows of `others` whose shared part divides that of vectors[j].  If a
    row of a lower key is one, vectors[j] makes nothing at this key; if a
    row of this key is one, their lcm goes to out and is all it makes."""
    live = []
    for own, lower in zip(*groups):
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


def _meet_candidates(avecs: Sequence[tuple[int, ...]],
                     bvecs: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Candidates, each in the meet and together holding its minimal
    generators, for the meet of the ideals A and B of two sets of minimal
    exponent vectors.

    Split the variables of the supports into T, those of both, and the
    private ones of A and of B.  A row a of A has key a_A, its exponents
    on A's private variables, and so for B.  A minimal generator h of the
    meet is lcm(a, b) = (max(a_T, b_T), a_A, b_B) for rows a of key a_A =
    h_A and b of key h_B.  If b_T is divisible by a'_T for a row a' of a
    key below h_A, then (b_T, a'_A, b_B) is in the meet strictly below h:
    b makes nothing at key h_A.  If a row a' of key h_A does, h is
    lcm(a', b).  Only the remaining pairs of the two keys need an lcm, and
    the same holds with A and B swapped.  With no private variables there
    is one empty key per side, so a row of one side inside the other
    comes out as it is and meets nothing.
    """
    a_cols, b_cols = list(zip(*avecs)), list(zip(*bvecs))
    a_on = {i for i, col in enumerate(a_cols) if any(col)}
    b_on = {i for i, col in enumerate(b_cols) if any(col)}
    shared = sorted(a_on & b_on)
    a_groups = _key_groups(a_cols, sorted(a_on - b_on))
    b_groups = _key_groups(b_cols, sorted(b_on - a_on))
    a_index = [_prefix_masks(a_cols[i]) for i in shared]
    b_index = [_prefix_masks(b_cols[i]) for i in shared]
    out: list[tuple[int, ...]] = []
    live_b = _live_rows(bvecs, [_rows_below(a_index, [v[i] for i in shared]) for v in bvecs],
                        avecs, a_groups, out)
    live_a = _live_rows(avecs, [_rows_below(b_index, [v[i] for i in shared]) for v in avecs],
                        bvecs, b_groups, out)
    for a_rows, b_live in zip(a_groups[0], live_b):
        for b_rows, a_live in zip(b_groups[0], live_a):
            a_pair = [avecs[j] for j in _bits(a_live & a_rows)]
            if a_pair:
                out.extend(tuple(map(max, a, bvecs[j]))
                           for j in _bits(b_live & b_rows) for a in a_pair)
    return out


def _canonical(dim: int, minimal: list[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of a minimal set of exponent vectors, sorted in place into
    canonical order."""
    minimal.sort(key=_canonical_key)
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
    for A, B in ((I, J), (J, I)):
        sp = B.simplex_power
        if sp is not None:
            return _canonical(A.ambient_dim, _meet_simplex_power(A.vectors, A.ambient_dim, *sp))
    return _from_vectors(I.ambient_dim, _meet_candidates(I.vectors, J.vectors))


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    if (trivial := _trivial_combine(I, J)) is not None:
        return trivial
    return _from_vectors(I.ambient_dim, [tuple(map(operator.add, a, b))
                                         for a in I.vectors for b in J.vectors])


@lru_cache(maxsize=512)
def _powers_of(I: MonomialIdeal) -> list[MonomialIdeal]:
    """[I, I^2, ...] as far as `power` has been asked for: each power of I
    is built once, as the one before it times I."""
    return [I]


def as_exponent(t) -> int:
    """t as an int, through operator.index: 2.0, 2.5, Fraction(2) and "2"
    are refused, as a Monomial refuses them."""
    try:
        return operator.index(t)
    except TypeError:
        raise ValueError(f"non-integer exponent {t!r}") from None


def power(I: MonomialIdeal, t: int) -> MonomialIdeal:
    """t-th power.  For a prime power, (P^m)^t = P^(mt) is every degree-mt
    monomial on P's variables, listed directly by the prime-power kernel.
    Any other I^t is built as I^(t-1) * I and minimalized, so intermediate
    generator sets never carry redundant elements; lower powers come from a
    per-ideal cache, so a run of powers of one ideal multiplies by I once
    per step, with no recursion however large t is."""
    t = as_exponent(t)
    if t < 0:
        raise ValueError("negative power of an ideal")
    if t == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    if I.is_zero or I.is_unit or t == 1:
        return I
    if I.simplex_power is not None:
        s_vars, m = I.simplex_power
        dim = I.ambient_dim
        return _canonical(dim, _meet_simplex_power([(0,) * dim], dim, s_vars, m * t))
    powers = _powers_of(I)
    while len(powers) < t:
        powers.append(multiply(powers[-1], I))
    return powers[t - 1]


def containment_witness(lhs: MonomialIdeal, rhs: MonomialIdeal, s: int) -> Monomial | None:
    """The first minimal generator of lhs, in canonical order, outside
    m^s * rhs, where m is the maximal ideal of the variables, as a
    Monomial; None when lhs <= m^s * rhs.  s = 0 is plain containment.

    This is the only containment kernel: every containment check reduces
    membership of f in m^s * rhs to "some minimal generator h of rhs
    divides f with deg f - deg h >= s", which is exact integer arithmetic.
    One divisibility index over rhs answers every generator of lhs.
    """
    _check_same_ring(lhs, rhs)
    if s < 0:
        raise ValueError("s must be non-negative")
    inside = _any_divisor_mask(lhs.vectors, rhs.vectors, min_gap=s)
    bad = next((f for f, ok in zip(lhs.vectors, inside) if not ok), None)
    return None if bad is None else Monomial(bad)


def subset(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """Exact containment I <= J (every minimal generator of I lies in J)."""
    return containment_witness(I, J, 0) is None


def radical(I: MonomialIdeal) -> MonomialIdeal:
    """Cap every exponent at 1, then minimalize."""
    if I.is_zero:
        return I
    return _from_vectors(I.ambient_dim,
                         [tuple(min(e, 1) for e in g) for g in I.vectors])


def is_squarefree(I: MonomialIdeal) -> bool:
    return all(e <= 1 for g in I.vectors for e in g)


def maximal_ideal(ambient_dim: int) -> MonomialIdeal:
    return _canonical(ambient_dim, [tuple(int(j == i) for j in range(ambient_dim))
                                    for i in range(ambient_dim)])


def iter_box(corner: Sequence[int]):
    """Iterate every exponent vector 0 <= v <= corner componentwise."""
    return itertools.product(*(range(c + 1) for c in corner))
