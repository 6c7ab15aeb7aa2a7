"""The pure-Python DOPRI5 stepper (``_stepper_py``), bound under one name."""

from . import _stepper_py as _impl

make_rhs = _impl.make_rhs
solve = _impl.solve
