"""Exact symbolic powers, symbolic polyhedra and containment checks for
monomial ideals."""

from __future__ import annotations

from .decomposition import (IrreducibleComponent, MonomialPrime,
                            associated_primes, big_height,
                            irreducible_decomposition, localize,
                            max_associated_primes, sigma)
from .errors import (DimensionMismatchError, NonAssociatedPrimeWarning,
                     PowersCoincideWarning, ResourceLimitError,
                     VerificationError)
from .geometry import (NewtonPolyhedron, SymbolicPolyhedron, alpha_polyhedron,
                       caratheodory_decompose, enumerate_vertices,
                       newton_polyhedron, np_member, realizing_denominator,
                       symbolic_polyhedron)
from .invariants import alpha, beta, chudnovsky_bound, waldschmidt
from .monomial import (Monomial, MonomialIdeal, contains, intersect,
                       maximal_ideal, multiply, power, radical, subset)
from .parsing import IdealDocument, ParseError, format_ideal, load_ideal, parse_ideal
from .results import CheckResult
from .symbolic import symbolic_power

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "DimensionMismatchError", "IdealDocument",
    "IrreducibleComponent", "Monomial", "MonomialIdeal", "MonomialPrime",
    "NewtonPolyhedron", "NonAssociatedPrimeWarning", "ParseError",
    "PowersCoincideWarning", "ResourceLimitError", "SymbolicPolyhedron",
    "VerificationError",
    "alpha", "alpha_polyhedron", "associated_primes", "beta", "big_height",
    "caratheodory_decompose", "chudnovsky_bound", "contains",
    "enumerate_vertices", "format_ideal", "intersect",
    "irreducible_decomposition", "load_ideal", "localize",
    "max_associated_primes", "maximal_ideal", "multiply",
    "newton_polyhedron", "np_member", "parse_ideal", "power", "radical",
    "realizing_denominator", "sigma", "subset", "symbolic_polyhedron",
    "symbolic_power", "waldschmidt",
]
