"""Per-layer spans and exact counts, installed on symbpow from outside.

Nothing under src/ is edited.  `install` replaces each layer function by a
wrapper in every `symbpow.*` namespace that binds the same object (a
module that did `from .monomial import power` holds its own reference, so
patching `monomial.power` alone would miss those calls).  A wrapper opens a
span, calls the original and closes the span; a span's self time is its
duration minus the time of the spans directly inside it.  The original
object is kept, so `cache_info()` of an lru_cache stays readable.

A layer function that the package no longer has is reported as absent and
its metrics read 0; it is never an error, so later refactors that delete a
function keep the benchmark running.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from symbpow.errors import ResourceLimitError

perf_counter = time.perf_counter


def _gens(ideal) -> int:
    return len(ideal.gens)


def _lp_shape(args, kwargs):
    program = args[0] if args else kwargs["lp"]
    return len(program.matrix), len(program.objective)


@dataclass
class Layer:
    """One traced function: `module.function`, reported under `name`.

    `before(args, kwargs, tracer)` may rewrite the arguments and returns
    (args, kwargs, state); `after(stat, args, kwargs, result, state,
    tracer)` adds exact counts once the span has closed.
    """

    module: str
    function: str
    name: str = ""
    before: Callable | None = None
    after: Callable | None = None

    def __post_init__(self):
        self.name = self.name or f"{self.module}.{self.function}"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    raised: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def top(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)


def _materialize_vectors(args, kwargs, tracer):
    # minimal_vectors takes any iterable (often a generator): list it
    # before the span opens, so the producer's work stays with the caller
    vectors = list(args[0] if args else kwargs.pop("vectors"))
    return (vectors,) + tuple(args[1:]), kwargs, len(vectors)


def _count_vectors(stat, args, kwargs, result, state, tracer):
    stat.add("vectors_in", state)
    stat.add("vectors_out", len(result))


def _count_pairs(stat, args, kwargs, result, state, tracer):
    stat.add("pairs", _gens(args[0]) * _gens(args[1]))


def _count_divisors(stat, args, kwargs, result, state, tracer):
    stat.add("divisors_scanned", _gens(args[1] if len(args) > 1 else kwargs["J"]))


def _count_gens_out(stat, args, kwargs, result, state, tracer):
    stat.add("gens_out", _gens(result))


def _count_components(stat, args, kwargs, result, state, tracer):
    stat.add("components_out", len(result))


def _count_vertices(stat, args, kwargs, result, state, tracer):
    stat.add("vertices_out", len(result))


def _lp_calls_before(args, kwargs, tracer):
    return args, kwargs, tracer.stat("lp.solve").calls


def _count_fast_path(stat, args, kwargs, result, state, tracer):
    # the fast path answers without any LP
    if tracer.stat("lp.solve").calls == state:
        stat.add("fast_path", 1)


def _count_lp(stat, args, kwargs, result, state, tracer):
    rows, cols = _lp_shape(args, kwargs)
    stat.add("rows", rows)
    stat.add("cols", cols)
    stat.top("max_rows", rows)
    stat.top("max_cols", cols)
    if getattr(result, "status", None) == "infeasible":
        stat.add("infeasible", 1)


# check name -> (module, function) of the function that runs that check
CHECKS = {
    "squarefree_containment": ("symbolic", "check_squarefree_containment"),
    "equal_exponent_containment": ("symbolic", "check_equal_exponent_containment"),
    "symbolic_step": ("symbolic", "check_symbolic_step"),
    "support_step": ("symbolic", "check_support_step"),
    "refined_containment": ("symbolic", "check_refined_containment"),
    "polyhedron_bound": ("harness", "check_polyhedron_bound"),
    "alpha_lower": ("invariants", "check_alpha_lower"),
    "stairs": ("geometry", "check_stairs_containment"),
    "alpha_slope": ("invariants", "check_alpha_slope"),
    "chudnovsky": ("invariants", "check_chudnovsky"),
    "equigenerated_containment": ("invariants", "check_equigenerated_containment"),
    "alpha_equality": ("invariants", "check_alpha_equality"),
    "integrally_closed_bound": ("invariants", "check_integrally_closed_bound"),
}

LAYERS = [
    Layer("monomial", "containment_with_m", after=_count_divisors),
    Layer("monomial", "minimal_vectors", before=_materialize_vectors,
          after=_count_vectors),
    Layer("monomial", "intersect", after=_count_pairs),
    Layer("monomial", "multiply", after=_count_pairs),
    Layer("monomial", "power"),
    Layer("symbolic", "symbolic_power", after=_count_gens_out),
    Layer("decomposition", "irreducible_decomposition", after=_count_components),
    Layer("decomposition", "localize"),
    Layer("geometry", "symbolic_polyhedron"),
    Layer("geometry", "alpha_polyhedron"),
    Layer("geometry", "enumerate_vertices", after=_count_vertices),
    Layer("geometry", "component_facets"),
    Layer("geometry", "np_member", before=_lp_calls_before, after=_count_fast_path),
    Layer("geometry", "realizing_denominator"),
    Layer("geometry", "caratheodory_decompose"),
    Layer("linalg", "solve_square"),
    Layer("linalg", "nullspace"),
    Layer("lp", "solve", after=_count_lp),
    Layer("invariants", "is_integrally_closed"),
    Layer("parsing", "load_ideal"),
    Layer("harness", "scan_jsonl"),
    Layer("cli", "main"),
] + [Layer(module, function, name=f"harness.check.{check}")
     for check, (module, function) in CHECKS.items()]


def symbpow_modules() -> list:
    """Every symbpow module, imported.  `symbpow.__main__` is skipped:
    importing it runs the command line."""
    import symbpow
    for info in pkgutil.iter_modules(symbpow.__path__):
        if info.name != "__main__":
            importlib.import_module(f"symbpow.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "symbpow" or name.startswith("symbpow."))
            and name != "symbpow.__main__" and mod is not None]


def lru_caches(modules) -> dict:
    """name -> every lru_cache-wrapped function defined in symbpow."""
    found = {}
    for mod in modules:
        for value in vars(mod).values():
            if (callable(value) and hasattr(value, "cache_info")
                    and getattr(value, "__module__", "") == mod.__name__):
                short = mod.__name__.removeprefix("symbpow.")
                found[f"{short}.{value.__name__}"] = value
    return found


class Tracer:
    """Spans and counters for one process.  Install once, read `report()`."""

    def __init__(self, layers=LAYERS):
        self.layers = list(layers)
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.modules: list = []
        self.caches: dict = {}
        self._stack: list[list[float]] = []
        self._defined_in: dict[str, str] = {}

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def install(self) -> "Tracer":
        self.modules = symbpow_modules()
        self.caches = lru_caches(self.modules)
        by_name = {m.__name__: m for m in self.modules}
        for layer in self.layers:
            mod = by_name.get(f"symbpow.{layer.module}")
            original = getattr(mod, layer.function, None) if mod else None
            if original is None or not callable(original):
                self.absent.append(layer.name)
                continue
            self.stat(layer.name)
            self._defined_in[layer.name] = layer.module
            wrapper = self._wrap(layer, original)
            for m in self.modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        return self

    def _wrap(self, layer: Layer, original):
        stack = self._stack
        stat = self.stats[layer.name]
        before, after = layer.before, layer.after
        tracer = self

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs, tracer)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except ResourceLimitError:
                stat.raised += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
            if after is not None:
                try:
                    after(stat, args, kwargs, result, state, tracer)
                except (LookupError, AttributeError, TypeError):
                    # a changed signature must not break the traced program
                    stat.add("counter_errors", 1)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", layer.function)
        return wrapper

    def cache_counts(self) -> dict:
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses}
        return out

    def report(self) -> dict:
        """JSON-ready: per layer calls, self/total time, raised, counts;
        lru_cache hits and misses; absent layers; defining modules."""
        return {
            "layers": {name: {"calls": st.calls, "self_s": st.self_s,
                              "total_s": st.total_s, "raised": st.raised,
                              "counts": dict(st.counts),
                              "module": self._defined_in.get(name, "")}
                       for name, st in self.stats.items() if name not in self.absent},
            "caches": self.cache_counts(),
            "absent": list(self.absent),
        }
