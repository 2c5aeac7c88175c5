"""Symbolic powers of monomial ideals.

For a monomial ideal I with no embedded component among its maximal
associated primes P, the m-th symbolic power is

    I^(m)  =  intersection over P in maxass(I) of (I localized at P)^m,

computed here exactly: the localization erases exponents outside P.

An ideal whose generators' supports fall into two or more connected
components is a sum I1 + I2 on disjoint variables: I1 is generated by the
generators that the first one reaches through shared variables, I2 by the
rest (`_split`, a fact of I).  Then (I1 + I2)^(m) is the sum over
j = 0..m of I1^(j) * I2^(m-j) (Ha, Nguyen, Trung and Trung, "Symbolic
powers of sums of ideals", Math. Z. 294, 2020), and its minimal
generators are the products g1 * g2 of a minimal generator g1 of I1^(j)
and one g2 of I2^(m-j), each listed once, with nothing to minimalize.  A
product dividing another, from j', would put g1 in I1^(j+1) (j' > j) or
g2 in I2^(m-j+1) (j' < j), and no minimal generator g of a symbolic power
J^(n) lies in J^(n+1): were g in Q^(n+1) for every localization Q, a
variable v of g divides one of n + 1 generators of Q whose product
divides g, or their cofactor, so g / x_v would stay in every Q^n.  So the
products need no filter, and the same argument makes the j of a product
unique.  I2^(m-j) splits again when I2 does; a principal ideal (g) gives
(g^m) at once; any other connected ideal takes the route below.

A connected ideal reads its localizations, a fact of I kept while the
caller holds I, from `decomposition.localizations`: each is built and
its prime-power shape found once per ideal, not once per exponent.  A
localization that is a prime power Q^k is never built out to Q^(km): it
is a prime step, one call of the prime-power kernel on the running
exponent vectors, which lists the minimal generators of the meet with
Q^(km) directly.  Any other localization is a general component,
its power formed with minimalization after every product.  The general
components are met pairwise through `intersect`, each time the two
(components or meets already formed) whose variable sets differ in the
fewest variables, then the two with the fewest lcm pairs: a variable that
only one side uses multiplies the size of a meet, so this keeps the
intermediate ideals small.  The prime steps then run on the meet of the general ones (on the
unit ideal if there is none), smallest first, and the vectors are sorted
once at the end.  The meet is a canonical ideal, so the order changes no
generator.  For a square-free I every step is a prime step, so no
component is built and nothing is minimalized.  `twin_quotient` merges
twins, variables in the same maximal associated primes, when every
localization is a prime power: membership in I^(a) and (I^(b))^t then
depends only on class sums (Herzog, Hibi and Trung, Adv. Math. 210, 2007),
so `harness._contained` decides containments on the quotient, with I's
exponents.  Twin-free ideals (cycles) keep I.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import add

from .decomposition import (irreducible_decomposition, localizations,
                            max_associated_primes)
from .monomial import (MonomialIdeal, _canonical, _fact, _from_vectors,
                       _meet_simplex_power, _naturals, power, require_proper)
from .monomial import intersect as ideal_intersect


@_fact
def symbolic_power(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """The m-th symbolic power (m = 0 gives the unit ideal), a fact of I."""
    (m,) = _naturals((m,), "exponent")
    require_proper(I)
    if m == 0:
        return MonomialIdeal.unit(I.ambient_dim)
    if m == 1:
        return I
    dim = I.ambient_dim
    if len(I.vectors) == 1:  # (g)^(m) = (g^m)
        return MonomialIdeal(dim, (tuple(m * e for e in I.vectors[0]),))
    if (parts := _split(I)) is not None:
        return _canonical(dim, _sum_power(*parts, m))
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


def _sum_power(I1: MonomialIdeal, I2: MonomialIdeal, m: int) -> list[tuple[int, ...]]:
    """The minimal generator vectors of (I1 + I2)^(m), I1 and I2 on
    disjoint variables: the products over j = 0..m of I1^(j)'s and
    I2^(m-j)'s, each once and none redundant (see the module docstring)."""
    out = []
    for j in range(m + 1):
        tails = symbolic_power(I2, m - j).vectors
        out += [tuple(map(add, g1, g2)) for g1 in symbolic_power(I1, j).vectors for g2 in tails]
    return out


@_fact
def _split(I: MonomialIdeal):
    """(I1, I2) when I = I1 + I2 on disjoint variables, else None.  I1 is
    generated by the generators that the first one reaches through shared
    variables, I2 by the rest, each in canonical order."""
    supports = [sum(1 << v for v, e in enumerate(g) if e) for g in I.vectors]
    reached, last = supports[0], 0  # the variables the first generator reaches
    while reached != last:
        last = reached
        for s in supports:
            if s & reached:
                reached |= s
    first = tuple(g for g, s in zip(I.vectors, supports) if s & reached)
    rest = tuple(g for g, s in zip(I.vectors, supports) if not s & reached)
    return (MonomialIdeal(I.ambient_dim, first),
            MonomialIdeal(I.ambient_dim, rest)) if rest else None


@_fact
def twin_quotient(I: MonomialIdeal):
    """(I', classes) when every localization of I is a prime power and some
    twin class has two or more variables, else None.  Classes go by last
    variable (a variable in no prime is in none), and I' is generated by
    the class sums of I's generators, one variable each."""
    locs = localizations(I)
    if any(L.simplex_power is None for _, L in locs):
        return None
    keys = [frozenset(n for n, (P, _) in enumerate(locs) if v in P.variables)
            for v in range(I.ambient_dim)]
    classes = tuple(sorted((tuple(v for v, k in enumerate(keys) if k == key)
                            for key in dict.fromkeys(keys) if key), key=max))
    if len(classes) == sum(map(len, classes)):
        return None
    return _from_vectors(len(classes), [tuple(sum(g[v] for v in C) for C in classes)
                                        for g in I.vectors]), classes


@_fact
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
