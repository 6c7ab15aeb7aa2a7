"""Invariant Spin(7) structures on the Q(1,1,1) and M(1,1,0) orbits.

Exact derivation of the holonomy ODE systems from closure of the invariant
four-form, numerical integration from singular-orbit data, closed-form
profiles, and quantitative verification reports.
"""

from .algebra import LaurentPoly, Multivector, SymbolTable
from .closed_form import compare, profile
from .flow import ODESystem, derive_flow, kaehler_search
from .homogeneous import classify_invariant_g2, get_model, m_model, q_model
from .integrate import IntegratorConfig, OrbitSpec, Trajectory, series_start, solve_orbit
from .structures import build_invariant_structure, canonical_forms, rotate_structure
from .verify import cone_fit, orbit_catalog, run_report, smoothness_report, su4_family_check

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "Multivector",
    "SymbolTable",
    "ODESystem",
    "IntegratorConfig",
    "OrbitSpec",
    "Trajectory",
    "build_invariant_structure",
    "canonical_forms",
    "classify_invariant_g2",
    "compare",
    "cone_fit",
    "derive_flow",
    "get_model",
    "kaehler_search",
    "m_model",
    "orbit_catalog",
    "profile",
    "q_model",
    "rotate_structure",
    "run_report",
    "series_start",
    "smoothness_report",
    "solve_orbit",
    "su4_family_check",
]
