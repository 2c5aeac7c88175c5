"""Irreducible decomposition and associated primes of monomial ideals.

A monomial ideal is irreducible exactly when it is generated by pure powers
of distinct variables.  The decomposition adds the minimal generators one
at a time to the unit ideal, the empty intersection.  Sums distribute over
intersections of irreducible ideals, and Q + (g) is Q itself when Q holds
g, else the intersection of Q + (x_j^g_j) over the variables j of g
(Miller and Sturmfels, Combinatorial Commutative Algebra, ch. 5).  After
each generator the redundant components go.  Irredundancy is pairwise: an
intersection of irreducible ideals lies inside an irreducible Q iff one of
them does (the monomial with exponent a_v - 1 on each power x_v^a_v of Q
and a huge exponent elsewhere avoids Q and lies in every component not
inside Q).  So the kept components are the minimal ones under inclusion,
which the divisibility index of `minimal_vectors` finds on flipped
exponent vectors.  What is left is the unique irredundant irreducible
decomposition, sorted by its variable powers.

The decomposition is checked before it is returned, by meeting its
components again, one at a time from the unit ideal, with none of the
build's code: every component, a prime one included, by the elementary
rule for a meet with (x_j^b_j : j in T) (see _check_recombines).  Unless
the meet is I, VerificationError is raised.

Associated primes are the radicals of those components; grouping
components by radical gives an irredundant primary decomposition, so no
radical is spurious.

The localization of I at P erases the exponents of the variables outside
P; for a square-free I it is P's ideal.  `localizations` pairs each
maximal associated prime with it, a fact of I (`monomial._fact`) kept
while the caller holds I, as the decomposition is: symbolic powers at
every exponent, the symbolic polyhedron and the integral-closure row all
read them from there, so each is built once per ideal.
"""

from __future__ import annotations

import warnings

from .errors import (DimensionMismatchError, NonAssociatedPrimeWarning,
                     PowersCoincideWarning, VerificationError)
from .monomial import (MonomialIdeal, _canonical, _fact, _from_vectors,
                       _Frozen, _naturals, _prefix_masks, _pure_powers,
                       _rows_below, _variable_names, is_squarefree,
                       minimal_vectors, require_proper)


class MonomialPrime(_Frozen):
    """A prime monomial ideal: the ideal of a non-empty set of variables."""

    _fields = ("ambient_dim", "variables")

    def __init__(self, ambient_dim: int, variables: tuple[int, ...]):
        (ambient_dim,) = _naturals((ambient_dim,), "ambient_dim")
        vs = tuple(sorted(set(_naturals(variables, "variable"))))
        if not vs:
            raise ValueError("a monomial prime needs at least one variable")
        if vs[-1] >= ambient_dim:
            raise ValueError(f"variable index out of range for dim {ambient_dim}")
        self._store(ambient_dim, vs)

    @property
    def height(self) -> int:
        return len(self.variables)

    def contains(self, other: MonomialPrime) -> bool:
        return set(other.variables) <= set(self.variables)

    def to_ideal(self) -> MonomialIdeal:
        return _pure_powers(self.ambient_dim, [(v, 1) for v in self.variables])

    def render(self, names=None) -> str:
        names = _variable_names(names, self.ambient_dim)
        return "(" + ",".join(names[i] for i in self.variables) + ")"

    def __str__(self):
        return self.render()


class IrreducibleComponent(_Frozen):
    """An irreducible monomial ideal (x_i^{a_i} : i in supp), a_i >= 1;
    powers are its sorted (variable, exponent) pairs, and radical the prime
    of its variables, built once with it (not a field: equality and hash
    read ambient_dim and powers only)."""

    _fields = ("ambient_dim", "powers")

    def __init__(self, ambient_dim: int, powers: tuple[tuple[int, int], ...]):
        ps = tuple(sorted(_naturals(p, "variable power") for p in powers))
        if any(e < 1 for _, e in ps):
            raise ValueError("variable powers must be at least 1")
        # its variables are read as its radical's: at least one, in the ring
        radical = MonomialPrime(ambient_dim, [v for v, _ in ps])
        if radical.height != len(ps):
            raise ValueError("repeated variable in component")
        self._store(radical.ambient_dim, ps)
        self.__dict__["radical"] = radical

    def to_ideal(self) -> MonomialIdeal:
        return _pure_powers(self.ambient_dim, self.powers)

    def render(self, names=None) -> str:
        return self.to_ideal().render(names)


@_fact
def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant irreducible decomposition, deterministically
    ordered.  Rejects the zero and unit ideals."""
    require_proper(I)
    # a component (x_j^c_j : c_j > 0) is held flipped: f_j = top - c_j, and
    # 0 for an absent variable, so that Q <= Q' exactly when f <= f'
    top = 1 + max(map(max, I.vectors))
    flips = [(0,) * I.ambient_dim]  # no variable power: the unit ideal
    for g in I.vectors:
        need = [(j, top - e) for j, e in enumerate(g) if e]
        grown = []
        for f in flips:
            if any(f[j] >= h for j, h in need):  # some 0 < c_j <= g_j
                grown.append(f)
            else:
                grown.extend(f[:j] + (h,) + f[j + 1:] for j, h in need)
        flips = minimal_vectors(grown)

    comps = [IrreducibleComponent(I.ambient_dim,
                                  tuple((j, top - x) for j, x in enumerate(f) if x))
             for f in flips]
    comps.sort(key=lambda c: c.powers)
    _check_recombines(I, comps)
    return tuple(comps)


def _check_recombines(I: MonomialIdeal, comps) -> None:
    """Raise VerificationError unless the components meet in exactly I.

    The meet is folded over the components from the unit ideal.  Each
    component Q = (x_j^b_j : j in T) follows one elementary rule: a minimal
    generator g of the meet that lies in Q (some g_j >= b_j) stays, and
    any other gives way to its copies g' with g_j raised to b_j, one per
    j in T.  No copy divides a generator that stays, so only copies can be
    redundant.  A copy g' is redundant exactly when another generator h of
    the meet divides it: then h stays, or its own copy raised in j divides
    g' (a generator that stays may equal g').  So one divisibility index
    over the meet tests every copy, and the new set needs no
    minimalization.  A prime component is the case b_j = 1 of the same
    rule: no faster route for it paid on a benchmark workload."""
    dim = I.ambient_dim
    meet = [(0,) * dim]
    # sorted order backwards: on six 5- and 6-variable scan corpora its
    # partial meets held 1.1-2.2 times fewer generators in all
    for comp in reversed(comps):
        powers = comp.powers
        index = [_prefix_masks(col) for col in zip(*meet)]
        grown = []
        for n, g in enumerate(meet):
            if any(g[j] >= b for j, b in powers):
                grown.append(g)
                continue
            for j, b in powers:
                raised = g[:j] + (b,) + g[j + 1:]
                if _rows_below(index, raised) == 1 << n:
                    grown.append(raised)
        meet = grown
    if _canonical(dim, meet) != I:
        raise VerificationError(
            f"irreducible decomposition does not recombine to the input: {I}")


@_fact
def associated_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """Radicals of the irredundant irreducible components, lexicographic."""
    primes = {c.radical for c in irreducible_decomposition(I)}
    return tuple(sorted(primes, key=lambda p: p.variables))


def max_associated_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    primes = associated_primes(I)
    return tuple(p for p in primes
                 if not any(q is not p and q.contains(p) for q in primes))


@_fact
def _big_height(I: MonomialIdeal) -> int:
    """big_height without the warning, for callers inside the package; each
    public entry point warns once, through warn_if_powers_coincide."""
    return max(p.height for p in associated_primes(I))


def _powers_coincide(I: MonomialIdeal) -> bool:
    """Whether the big height equals the variable count: the graded maximal
    ideal is then associated, and symbolic powers are ordinary powers."""
    return _big_height(I) == I.ambient_dim


def warn_if_powers_coincide(I: MonomialIdeal) -> None:
    """PowersCoincideWarning when they coincide; public entry points call it
    once, and the warning names the line that called them."""
    if _powers_coincide(I):
        warnings.warn(
            "big-height equals the number of variables: symbolic powers "
            "of this ideal are its ordinary powers",
            PowersCoincideWarning, stacklevel=3)


def big_height(I: MonomialIdeal) -> int:
    """Maximal height of an associated prime; warns when it equals the
    variable count (see warn_if_powers_coincide)."""
    warn_if_powers_coincide(I)
    return _big_height(I)


def localize(I: MonomialIdeal, P: MonomialPrime) -> MonomialIdeal:
    """The contraction of I to the localization at P: erase exponents of
    variables outside P and minimalize.  Warns when P is not associated
    (the result is still well defined)."""
    if I.ambient_dim != P.ambient_dim:
        raise DimensionMismatchError("ideal and prime disagree on the ambient ring")
    require_proper(I)
    if P not in associated_primes(I):
        warnings.warn(
            f"{P} is not an associated prime of {I}",
            NonAssociatedPrimeWarning, stacklevel=2)
    inside = set(P.variables)
    return _from_vectors(I.ambient_dim,
                         [tuple(e if i in inside else 0 for i, e in enumerate(g))
                          for g in I.vectors])


@_fact
def localizations(I: MonomialIdeal) -> tuple[tuple[MonomialPrime, MonomialIdeal], ...]:
    """(P, I localized at P) for each maximal associated prime P, in the
    order of max_associated_primes; a fact of I, so a localization's
    prime-power shape is found once however many exponents ask.  For a
    square-free I each P is a minimal cover of the generators' supports:
    every variable of P is the only one of P in some generator (else P
    less it would cover them too), so the localization is P's ideal, with
    nothing to minimalize."""
    if is_squarefree(I):
        return tuple((P, P.to_ideal()) for P in max_associated_primes(I))
    return tuple((P, localize(I, P)) for P in max_associated_primes(I))


@_fact
def sigma(I: MonomialIdeal) -> int:
    """Least support size over the minimal generators.  Every monomial of I
    is divisible by a generator, so it is the least support size over all
    monomials of I."""
    require_proper(I)
    return min(len(g) - g.count(0) for g in I.vectors)
