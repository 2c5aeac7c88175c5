"""Symbolic powers of monomial ideals.

For a monomial ideal I with no embedded component among its maximal
associated primes P, the m-th symbolic power is

    I^(m)  =  intersection over P in maxass(I) of (I localized at P)^m,

computed here exactly: the localization erases exponents outside P.  The
localizations come from `decomposition.localizations`, memoized by value,
so each is built and its prime-power shape found once per ideal, not once
per exponent.  A localization that is a prime power Q^k is never built out
to Q^(km): it is a prime step, one call of the prime-power kernel on the
running exponent vectors, which lists the minimal generators of the meet
with Q^(km) directly.  Any other localization is a general component,
its power formed with minimalization after every product.  The general
components are met pairwise through `intersect`, each time the two
(components or meets already formed) whose variable sets differ in the
fewest variables, then the two with the fewest lcm pairs: a variable that
only one side uses multiplies the size of a meet, so this keeps the
intermediate ideals small.  The prime steps then run on the meet of the general ones (on the
unit ideal if there is none), smallest first, and the vectors are sorted
once at the end.  The meet is a canonical ideal, so the order changes no
generator.  For a square-free I every step is a prime step, so no
component is built and nothing is minimalized.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .decomposition import (irreducible_decomposition, localizations,
                            max_associated_primes)
from .monomial import (MonomialIdeal, _canonical, _meet_simplex_power,
                       _naturals, power, require_proper)
from .monomial import intersect as ideal_intersect


@lru_cache(maxsize=512, typed=True)
def symbolic_power(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """The m-th symbolic power (m = 0 gives the unit ideal).  The cache is
    typed, so 2.0 never finds the entry of 2 and is refused like 2.5."""
    (m,) = _naturals((m,), "exponent")
    require_proper(I)
    if m == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    if m == 1:
        return I
    dim = I.ambient_dim
    general = []  # (variables of P, (I localized at P)^m), later of meets
    prime_steps = []  # (generator count, S, n) for a localization Q^k, n = km
    for P, L in localizations(I):
        if L.simplex_power is None:
            general.append((frozenset(P.variables), power(L, m)))
        else:
            s_vars, k = L.simplex_power
            prime_steps.append((comb(k * m + len(s_vars) - 1, len(s_vars) - 1), s_vars, k * m))
    while len(general) > 1:
        i, j = min(combinations(range(len(general)), 2), key=lambda pair: (
            len(general[pair[0]][0] ^ general[pair[1]][0]),
            len(general[pair[0]][1].vectors) * len(general[pair[1]][1].vectors)))
        (U, A), (V, B) = general[i], general.pop(j)
        general[i] = (U | V, ideal_intersect(A, B))
    running = list(general[0][1].vectors) if general else [(0,) * dim]
    for _, s_vars, n in sorted(prime_steps, key=lambda step: step[0]):
        running = _meet_simplex_power(running, dim, s_vars, n)
    return _canonical(dim, running)


def equal_exponent_condition(I: MonomialIdeal) -> bool:
    """True when, for each variable, all irreducible components that involve
    it use one and the same exponent (square-free ideals trivially qualify)."""
    exponent = {}
    for comp in irreducible_decomposition(I):
        for v, e in comp.powers:
            if exponent.setdefault(v, e) != e:
                return False
    return True


def symbolic_equals_ordinary(I: MonomialIdeal) -> bool:
    """True when there is a unique maximal associated prime (then the
    localization is I itself and every symbolic power is the plain power)."""
    return len(max_associated_primes(I)) == 1
