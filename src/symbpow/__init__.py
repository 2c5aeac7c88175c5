"""Exact symbolic powers, symbolic polyhedra and containment checks for
monomial ideals."""

import importlib

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "DimensionMismatchError", "IdealDocument",
    "IrreducibleComponent", "Monomial", "MonomialIdeal", "MonomialPrime",
    "NewtonPolyhedron", "NonAssociatedPrimeWarning", "ParseError",
    "PowersCoincideWarning", "ResourceLimitError", "SymbolicPolyhedron",
    "VerificationError",
    "alpha", "alpha_polyhedron", "associated_primes", "beta", "big_height",
    "chudnovsky_bound", "contains", "enumerate_vertices", "format_ideal",
    "intersect", "irreducible_decomposition", "load_ideal", "localize",
    "max_associated_primes", "maximal_ideal", "multiply",
    "newton_polyhedron", "np_member", "parse_ideal", "power", "radical",
    "sigma", "subset", "symbolic_polyhedron", "symbolic_power", "waldschmidt",
]

# each public name's home module, imported at the name's first lookup (PEP 562)
_HOMES = {name: module for module, names in {
    "decomposition": "IrreducibleComponent MonomialPrime associated_primes big_height "
                     "irreducible_decomposition localize max_associated_primes sigma",
    "errors": "DimensionMismatchError NonAssociatedPrimeWarning PowersCoincideWarning "
              "ResourceLimitError VerificationError",
    "geometry": "NewtonPolyhedron SymbolicPolyhedron alpha_polyhedron enumerate_vertices "
                "newton_polyhedron np_member symbolic_polyhedron",
    "invariants": "alpha beta chudnovsky_bound waldschmidt",
    "monomial": "Monomial MonomialIdeal contains intersect maximal_ideal multiply power "
                "radical subset",
    "parsing": "IdealDocument ParseError format_ideal load_ideal parse_ideal",
    "results": "CheckResult", "symbolic": "symbolic_power",
}.items() for name in names.split()}


def __getattr__(name: str):
    if name not in _HOMES and name not in _HOMES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOMES.get(name, name)}", __name__)
    globals()[name] = value = getattr(module, name) if name in _HOMES else module
    return value


def __dir__():
    return sorted({*globals(), *__all__})
