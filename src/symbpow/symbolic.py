"""Symbolic powers of monomial ideals.

For a monomial ideal I with no embedded component among its maximal
associated primes P, the m-th symbolic power is

    I^(m)  =  intersection over P in maxass(I) of (I localized at P)^m,

computed here exactly: the localization erases exponents outside P.  A
localization that is a prime power Q^k is never built out to Q^(km): it is
a prime step, one call of the prime-power kernel on the running exponent
vectors, which lists the minimal generators of the meet with Q^(km)
directly.  Any other localization is a general component, its power formed
with minimalization after every product and met through `intersect`.  The
steps run smallest component first, starting from the unit ideal; the
running vectors are sorted only before a general step and at the end.  For
a square-free I every step is a prime step, so no component is built and
nothing is minimalized.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .decomposition import (irreducible_decomposition, localize,
                            max_associated_primes)
from .monomial import (MonomialIdeal, _canonical, _meet_simplex_power,
                       power, require_proper)
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
    dim = I.ambient_dim
    steps = []  # (generator count, general component or prime step (S, n))
    for P in max_associated_primes(I):
        L = localize(I, P)
        if L.simplex_power is None:
            C = power(L, m)
            steps.append((len(C.vectors), C))
        else:
            s_vars, k = L.simplex_power
            steps.append((comb(k * m + len(s_vars) - 1, len(s_vars) - 1), (s_vars, k * m)))
    steps.sort(key=lambda step: step[0])
    running = [(0,) * dim]  # the unit ideal
    for _, step in steps:
        if isinstance(step, MonomialIdeal):
            running = list(ideal_intersect(_canonical(dim, running), step).vectors)
        else:
            running = _meet_simplex_power(running, dim, *step)
    return _canonical(dim, running)


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
