"""The four desk workloads: their inputs, and how long one repetition is.

Three workloads run a fixed corpus, so that every run carries the same
heavy-tailed ideals.  Drawing a fresh corpus from `--seed` was measured and
rejected: the time of a 40-ideal default scan ranged over 4.2-12.2 s
across seeds 1-10 (quartile spread 41 % of the median), and a 150-ideal
square-free sweep over 27-43 s, because a few ideals per corpus (a 7 s
sweep ideal, a 9 s six-variable LP) carry most of the time.  Ops also run
in a fixed order: shuffling the Waldschmidt ops by seed moved their median
latency by up to 20 % between seeds.  `--seed` draws the two seeded ideal
files of cli-desk.
"""

from __future__ import annotations

NAMES = ("scan-mixed", "sweep-sqfree", "waldschmidt-general", "cli-desk")
DEFAULT_SEED = 1

# scan-mixed: the c10 scan, `scan --count 50 --seed 7` with every other
# setting at the ScanConfig default (3-4 variables, square-free and general
# ideals mixed, all 13 checks).  One op is one ideal's suite.
SCAN_MIXED = {"count": 50, "seed": 7}

# sweep-sqfree: the first 100 ideals of the c03 sweep.
SWEEP_SQFREE = {"count": 100, "seed": 2026, "num_vars": (3, 4, 5),
                "squarefree_only": True,
                "checks": ("squarefree_containment",)}

# waldschmidt-general: general ideals from harness._random_general with
# exponents <= 5 and <= 6 generators, the first WALD_COUNTS[n] ideals in n
# variables of the corpus stream.  One op is one ideal.
WALD_SEED = 1309
WALD_COUNTS = {5: 24, 6: 1}
WALD_MAX_EXP = 5
WALD_MAX_GENS = 6

# cli-desk: the worked examples (as in tests/conftest.py) plus two ideal
# files drawn from --seed, each run through every command below.
WORKED = {
    "rot3": (3, [(1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1)]),
    "triples4": (4, [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)]),
    "edges3": (3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
}
SEEDED_GENERAL = {"nvars": 3, "max_exp": 3, "max_gens": 4}
SEEDED_SQFREE_VARS = 4
CLI_COMMANDS = {
    "info": ["info"],
    "suite": ["suite"],
    "waldschmidt": ["waldschmidt"],
    "symbolic": ["symbolic", "-m", "2"],
    "polyhedron": ["polyhedron", "--vertices"],
    "containment": ["containment", "--m", "3", "--s", "1", "--r", "2"],
}

# Repetitions in a run of RUN_SECONDS, the run_seconds of BENCHMARK.json;
# other lengths scale them.  One repetition takes about 14 s (scan-mixed),
# 9.5 s (sweep-sqfree), 12.5 s (waldschmidt-general) and 10.6 s (cli-desk)
# of wall time on the reference machine (2 vCPU Xeon, Python 3.11.7).
# scan-mixed makes three: its median op is 35 ms, the shortest span the
# yardstick rescales.  The count depends only on --seconds, never on how
# fast a commit is.
RUN_SECONDS = 24
REPETITIONS = {"scan-mixed": 3, "sweep-sqfree": 2, "waldschmidt-general": 2,
               "cli-desk": 2}


def repetitions(workload: str, seconds: float) -> int:
    return max(1, round(REPETITIONS[workload] * seconds / RUN_SECONDS))


def scan_config(workload: str) -> dict:
    return dict(SCAN_MIXED if workload == "scan-mixed" else SWEEP_SQFREE)


def wald_corpus():
    """[(op id, MonomialIdeal)] of waldschmidt-general, in corpus order."""
    from symbpow.harness import _random_general
    from symbpow.rng import SplitRng

    root = SplitRng(WALD_SEED, ("waldschmidt-general",))
    return [(f"v{nvars}-{i:02d}",
             _random_general(root.child(nvars, i), nvars, WALD_MAX_EXP,
                             WALD_MAX_GENS))
            for nvars, count in WALD_COUNTS.items() for i in range(count)]


def cli_ideals(seed: int) -> dict:
    """name -> (variable count, exponent vectors) of cli-desk's files."""
    from symbpow.harness import _random_general, _random_squarefree
    from symbpow.rng import SplitRng

    rng = SplitRng(seed, ("cli-desk",))
    general = _random_general(rng.child("general"), SEEDED_GENERAL["nvars"],
                              SEEDED_GENERAL["max_exp"],
                              SEEDED_GENERAL["max_gens"])
    sqfree, _ = _random_squarefree(rng.child("sqfree"), SEEDED_SQFREE_VARS)
    ideals = {name: (dim, list(vecs)) for name, (dim, vecs) in WORKED.items()}
    for name, ideal in (("seeded_general", general), ("seeded_sqfree", sqfree)):
        ideals[name] = (ideal.ambient_dim, [list(v) for v in ideal.vectors])
    return ideals


def ideal_file_text(dim: int, vectors) -> str:
    names = [f"x{i}" for i in range(dim)]
    body = "".join("  [" + " ".join(str(e) for e in v) + "]\n" for v in vectors)
    return f"vars: {' '.join(names)}\ngens:\n{body}"
