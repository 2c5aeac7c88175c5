import json
from pathlib import Path

import pytest

from symbpow.monomial import Monomial, MonomialIdeal, _Frozen
from symbpow.rng import SplitRng


def pytest_addoption(parser):
    parser.addoption("--dump-digests", metavar="DIR", type=Path,
                     help="also write the records that each tier-1 digest "
                          "with no CLI pin hashes to DIR/<name>")


@pytest.fixture
def dump_records(request):
    """dump(name, records) writes the records a digest hashes, one JSON line
    each, to DIR/name under --dump-digests DIR, and does nothing without
    it: two trees' dumps are compared field by field by record_diff.py."""
    directory = request.config.getoption("--dump-digests")

    def dump(name, records):
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return dump


@pytest.fixture
def vblock_calls(monkeypatch):
    """The polyhedra that geometry._vblock_optimum, the LP that breaks a
    tie of the alpha LP, runs on during one test, in call order."""
    from symbpow import geometry

    real, calls = geometry._vblock_optimum, []
    monkeypatch.setattr(geometry, "_vblock_optimum",
                        lambda Q, objective: calls.append(Q) or real(Q, objective))
    return calls


def drop_facts(*memos):
    """Forget the facts that the given memos (`monomial._fact` functions)
    keep on every live ideal and on the polyhedra among its facts, as if
    each ideal had been dropped and built again."""
    held = list(MonomialIdeal._interned.values())
    held += [value for I in held for table in vars(I).values() if isinstance(table, dict)
             for value in table.values() if isinstance(value, _Frozen)]
    for value in held:
        for memo in memos:
            vars(value).pop(memo.__name__, None)


def ideal_of(dim, *vecs) -> MonomialIdeal:
    return MonomialIdeal.make(dim, [Monomial(tuple(v)) for v in vecs])


@pytest.fixture
def rot3():
    """(x*y^2, y*z^2, z*x^2, x*y*z) in three variables: the classic ideal
    whose third symbolic power escapes m * I^2."""
    return ideal_of(3, (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1))


@pytest.fixture
def triples4():
    """(x*y*z, x*y*w, x*z*w, y*z*w): square-free, generated by the four
    degree-three products in four variables."""
    return ideal_of(4, (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))


@pytest.fixture
def net6():
    """(x1*x2*x3, x0*x2*x4, x0*x1*x5, x0*x1*x2): the vertex covers of a
    triangle with one pendant edge at each corner.  Square-free, generated
    in degree three, big height 2 and Waldschmidt constant alpha = 3; its
    second symbolic power is not its second power (the triangle is odd)."""
    return ideal_of(6, (0, 1, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0), (1, 1, 0, 0, 0, 1),
                    (1, 1, 1, 0, 0, 0))


@pytest.fixture
def wide8():
    """(x1, ..., x6, x0*x7), wide8.ideal of the CLI pins: the meet of two
    7-variable primes in 8 variables, whose twin classes are x0, x1..x6
    and x7."""
    return ideal_of(8, *[[int(j == i) for j in range(8)] for i in range(1, 7)],
                    (1, 0, 0, 0, 0, 0, 0, 1))


@pytest.fixture
def edges3():
    """(x*y, x*z, y*z), the pairwise products in three variables."""
    return ideal_of(3, (1, 1, 0), (1, 0, 1), (0, 1, 1))


def random_squarefree_corpus(count, seed, dims=(3, 4, 5)):
    """Deterministic square-free sample ideals, together with the prime
    family each one was built from."""
    from symbpow.harness import _random_squarefree

    root = SplitRng(seed, ("corpus",))
    out = []
    for i in range(count):
        rng = root.child(f"ideal{i}")
        nvars = dims[rng.randint(0, len(dims) - 1)]
        out.append(_random_squarefree(rng, nvars))
    return out


def random_primary_corpus(count, seed, dims=(2, 3), max_exp=3):
    """Ideals containing a pure power of every variable, so the maximal
    ideal is the only (and maximal) associated prime."""
    root = SplitRng(seed, ("primary",))
    out = []
    for i in range(count):
        rng = root.child(f"ideal{i}")
        nvars = dims[rng.randint(0, len(dims) - 1)]
        gens = []
        for v in range(nvars):
            exp = rng.child(f"pure{v}").randint(1, max_exp)
            gens.append(Monomial(tuple(exp if j == v else 0 for j in range(nvars))))
        extras = rng.randint(0, 2)
        for j in range(extras):
            g = rng.child(f"extra{j}")
            vec = tuple(g.randint(0, max_exp) for _ in range(nvars))
            gens.append(Monomial(vec))
        I = MonomialIdeal.make(nvars, gens)
        if I.is_proper:
            out.append(I)
    return out


def random_general_corpus(count, seed, dims=(3, 4), max_exp=4, max_gens=5):
    from symbpow.harness import _random_general

    root = SplitRng(seed, ("general",))
    out = []
    for i in range(count):
        rng = root.child(f"ideal{i}")
        nvars = dims[rng.randint(0, len(dims) - 1)]
        out.append(_random_general(rng, nvars, max_exp, max_gens))
    return out
