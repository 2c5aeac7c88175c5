"""Irreducible decomposition and associated primes of monomial ideals.

A monomial ideal is irreducible exactly when it is generated by pure powers
of distinct variables.  Any proper non-zero monomial ideal splits along a
mixed generator g = u*v with coprime non-trivial u, v:

    I = (I + (u))  meet  (I + (v))

Recursing until every leaf is generated by pure variable powers and pruning
redundant leaves once at the end yields the unique irredundant irreducible
decomposition.  Associated primes are the radicals of those components;
grouping components by radical gives an irredundant primary decomposition,
so no radical is spurious.

The splitting pivot is deterministic: always the lexicographically-first
mixed generator, split at its first supported variable, so component order
is reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

from .errors import (NonAssociatedPrimeWarning, PowersCoincideWarning,
                     VerificationError)
from .monomial import (Monomial, MonomialIdeal, intersect, minimal_vectors,
                       require_proper)

_DECOMP_CACHE_SIZE = 1024


@dataclass(frozen=True)
class MonomialPrime:
    """A prime monomial ideal: the ideal of a non-empty set of variables."""

    ambient_dim: int
    variables: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(sorted(set(int(v) for v in self.variables)))
        if not vs:
            raise ValueError("a monomial prime needs at least one variable")
        if vs[0] < 0 or vs[-1] >= self.ambient_dim:
            raise ValueError(f"variable index out of range for dim {self.ambient_dim}")
        object.__setattr__(self, "variables", vs)

    @property
    def height(self) -> int:
        return len(self.variables)

    def contains(self, other: "MonomialPrime") -> bool:
        return set(other.variables) <= set(self.variables)

    def to_ideal(self) -> MonomialIdeal:
        gens = []
        for i in self.variables:
            v = [0] * self.ambient_dim
            v[i] = 1
            gens.append(Monomial(tuple(v)))
        return MonomialIdeal.make(self.ambient_dim, gens)

    def render(self, names=None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.ambient_dim)]
        return "(" + ",".join(names[i] for i in self.variables) + ")"

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class IrreducibleComponent:
    """An irreducible monomial ideal (x_i^{a_i} : i in supp), a_i >= 1."""

    ambient_dim: int
    powers: tuple[tuple[int, int], ...]  # sorted (variable, exponent) pairs

    def __post_init__(self):
        ps = tuple(sorted((int(v), int(e)) for v, e in self.powers))
        if not ps:
            raise ValueError("an irreducible component needs at least one variable power")
        if any(e < 1 for _, e in ps):
            raise ValueError("variable powers must be at least 1")
        if len({v for v, _ in ps}) != len(ps):
            raise ValueError("repeated variable in component")
        object.__setattr__(self, "powers", ps)

    @property
    def radical(self) -> MonomialPrime:
        return MonomialPrime(self.ambient_dim, tuple(v for v, _ in self.powers))

    def exponent_of(self, variable: int) -> int | None:
        for v, e in self.powers:
            if v == variable:
                return e
        return None

    def to_ideal(self) -> MonomialIdeal:
        gens = []
        for v, e in self.powers:
            vec = [0] * self.ambient_dim
            vec[v] = e
            gens.append(Monomial(tuple(vec)))
        return MonomialIdeal.make(self.ambient_dim, gens)

    def render(self, names=None) -> str:
        return self.to_ideal().render(names)


def _component_of(I: MonomialIdeal) -> IrreducibleComponent:
    return IrreducibleComponent(
        I.ambient_dim,
        tuple((g.support[0], g.exponents[g.support[0]]) for g in I.gens))


def _component_leq(a: IrreducibleComponent, b: IrreducibleComponent) -> bool:
    """Ideal containment a <= b for irreducible ideals: every generator
    x_v^α of a must lie in b, i.e. v is among b's variables with power <= α."""
    exps_a = dict(a.powers)
    exps_b = dict(b.powers)
    if not set(exps_a) <= set(exps_b):
        return False
    return all(exps_a[v] >= exps_b[v] for v in exps_a)


def _split_pivot(I: MonomialIdeal) -> tuple[Monomial, Monomial] | None:
    """Lexicographically-first mixed generator, split at its first variable."""
    mixed = [g for g in I.gens if len(g.support) >= 2]
    if not mixed:
        return None
    g = min(mixed, key=lambda m: m.exponents)
    i = g.support[0]
    u = [0] * I.ambient_dim
    u[i] = g.exponents[i]
    v = list(g.exponents)
    v[i] = 0
    return Monomial(tuple(u)), Monomial(tuple(v))


@lru_cache(maxsize=_DECOMP_CACHE_SIZE)
def irreducible_decomposition(I: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """The unique irredundant irreducible decomposition, deterministically
    ordered.  Rejects the zero and unit ideals."""
    require_proper(I)

    leaves: set[MonomialIdeal] = set()
    seen: set[MonomialIdeal] = set()
    stack = [I]
    while stack:
        J = stack.pop()
        if J in seen:
            continue
        seen.add(J)
        pivot = _split_pivot(J)
        if pivot is None:
            leaves.add(J)
            continue
        u, v = pivot
        stack.append(MonomialIdeal.make(J.ambient_dim, J.gens + (u,)))
        stack.append(MonomialIdeal.make(J.ambient_dim, J.gens + (v,)))

    comps = [_component_of(L) for L in leaves]
    comps.sort(key=lambda c: c.powers)

    # irredundancy is pairwise here: an intersection of irreducible ideals
    # lies inside an irreducible Q iff one of them does (take the monomial
    # with exponent a_v - 1 on every variable power x_v^{a_v} of Q and a
    # huge exponent elsewhere: it avoids Q, and lies in every component not
    # pairwise contained in Q)
    kept = [c for c in comps
            if not any(j is not c and _component_leq(j, c) for j in comps)]

    recombined = reduce(intersect, (k.to_ideal() for k in kept))
    if recombined != I:
        raise VerificationError(
            f"irreducible decomposition does not recombine to the input: {I}")
    return tuple(kept)


def associated_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    """Radicals of the irredundant irreducible components, lexicographic."""
    primes = {c.radical for c in irreducible_decomposition(I)}
    return tuple(sorted(primes, key=lambda p: p.variables))


def max_associated_primes(I: MonomialIdeal) -> tuple[MonomialPrime, ...]:
    primes = associated_primes(I)
    return tuple(p for p in primes
                 if not any(q is not p and q.contains(p) for q in primes))


def _big_height(I: MonomialIdeal) -> int:
    """big_height without the warning, for callers inside the package; each
    public entry point warns once, through warn_if_powers_coincide."""
    return max(p.height for p in associated_primes(I))


def warn_if_powers_coincide(I: MonomialIdeal, stacklevel: int = 2) -> None:
    """PowersCoincideWarning when the big height equals the variable count:
    the graded maximal ideal is then associated, and symbolic powers
    coincide with ordinary powers.  Public entry points call it once;
    stacklevel counts frames from theirs, as in warnings.warn."""
    if _big_height(I) == I.ambient_dim:
        warnings.warn(
            "big-height equals the number of variables: symbolic powers "
            "of this ideal are its ordinary powers",
            PowersCoincideWarning, stacklevel=stacklevel + 1)


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
        raise ValueError("ideal and prime disagree on the ambient ring")
    require_proper(I)
    if P not in associated_primes(I):
        warnings.warn(
            f"{P} is not an associated prime of {I}",
            NonAssociatedPrimeWarning, stacklevel=2)
    inside = set(P.variables)
    vecs = [tuple(e if i in inside else 0 for i, e in enumerate(g.exponents))
            for g in I.gens]
    return MonomialIdeal(I.ambient_dim,
                         tuple(Monomial(v) for v in minimal_vectors(vecs)))


def sigma(I: MonomialIdeal) -> int:
    """Least support size over the minimal generators.  Every monomial of I
    is divisible by a generator, so it is the least support size over all
    monomials of I."""
    require_proper(I)
    return min(len(g.support) for g in I.gens)
