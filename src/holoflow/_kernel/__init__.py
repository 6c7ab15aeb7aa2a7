"""The pure-Python DOPRI5 stepper (``_stepper_py``), bound under one name."""

from . import _stepper_py as _impl

solve = _impl.solve
dense_eval = _impl.dense_eval
