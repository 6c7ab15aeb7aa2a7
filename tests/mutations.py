"""Deliberately wrong systems for the mutation checks."""

from fractions import Fraction

from holoflow.flow import ODESystem


def perturbed_system(sys: ODESystem, name: str, factor: Fraction = Fraction(2)) -> ODESystem:
    """Scale one right-hand side."""
    rhs = dict(sys.rhs)
    rhs[name] = rhs[name] * factor
    return ODESystem(
        sys.model_kind, sys.indices, sys.state, rhs, sys.rank, sys.n_equations
    )
