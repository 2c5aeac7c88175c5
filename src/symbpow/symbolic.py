"""Symbolic powers of monomial ideals.

For a monomial ideal I with no embedded component among its maximal
associated primes P, the m-th symbolic power is

    I^(m)  =  intersection over P in maxass(I) of (I localized at P)^m,

computed here exactly: the localization erases exponents outside P, its
power is formed with minimalization after every product (a power of a
prime is listed directly), and the components are intersected
smallest-first.  Each intersection with a prime-power component builds its
minimal generators directly; for a square-free I every component is one.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .decomposition import (irreducible_decomposition, localize,
                            max_associated_primes)
from .monomial import MonomialIdeal, is_squarefree, power, require_proper
from .monomial import intersect as ideal_intersect


@lru_cache(maxsize=512)
def symbolic_power(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """The m-th symbolic power (m = 0 gives the unit ideal)."""
    require_proper(I)
    if m < 0:
        raise ValueError("negative symbolic power")
    if m == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    if m == 1:
        return I
    comps = [power(localize(I, P), m) for P in max_associated_primes(I)]
    comps.sort(key=lambda c: len(c.gens))
    return reduce(ideal_intersect, comps)


def symbolic_power_oracle_sqfree(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """Independent route for square-free ideals: intersect the m-th powers
    of the minimal primes coming straight out of the irreducible
    decomposition (no localization involved)."""
    require_proper(I)
    if not is_squarefree(I):
        raise ValueError("oracle only applies to square-free ideals")
    if m == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    comps = [power(c.to_ideal(), m) for c in irreducible_decomposition(I)]
    comps.sort(key=lambda c: len(c.gens))
    return reduce(ideal_intersect, comps)


def equal_exponent_condition(I: MonomialIdeal) -> bool:
    """True when, for each variable, all irreducible components that involve
    it use one and the same exponent (square-free ideals trivially qualify)."""
    comps = irreducible_decomposition(I)
    for v in range(I.ambient_dim):
        exps = {c.exponent_of(v) for c in comps} - {None}
        if len(exps) > 1:
            return False
    return True


def symbolic_equals_ordinary(I: MonomialIdeal) -> bool:
    """True when there is a unique maximal associated prime (then the
    localization is I itself and every symbolic power is the plain power)."""
    return len(max_associated_primes(I)) == 1
