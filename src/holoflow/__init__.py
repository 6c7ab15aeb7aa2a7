"""Invariant Spin(7) structures on the Q(1,1,1) and M(1,1,0) orbits.

Exact derivation of the holonomy ODE systems from closure of the invariant
four-form, numerical integration from singular-orbit data, closed-form
profiles, and quantitative verification reports.
"""

from importlib import import_module as _import_module

#: each exported name's module; a name is imported from it on first access,
#: so ``import holoflow`` loads no submodule
_EXPORTS = {
    **dict.fromkeys(("LaurentPoly", "Multivector", "SymbolTable"), "algebra"),
    **dict.fromkeys(("compare", "profile"), "closed_form"),
    **dict.fromkeys(("ODESystem", "derive_flow", "kaehler_search"), "flow"),
    **dict.fromkeys(("classify_invariant_g2", "get_model", "m_model", "q_model"), "homogeneous"),
    **dict.fromkeys(
        ("IntegratorConfig", "OrbitSpec", "Trajectory", "series_start", "solve_orbit"), "integrate"
    ),
    **dict.fromkeys(
        ("build_invariant_structure", "canonical_forms", "rotate_structure"), "structures"
    ),
    **dict.fromkeys(
        ("cone_fit", "orbit_catalog", "run_report", "smoothness_report", "su4_family_check"),
        "verify",
    ),
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name):
    # read from the module on every access, never stored here: a wrapper
    # patched onto the module (a profiler's, a test's) is what this name gives
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
