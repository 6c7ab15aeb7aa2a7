"""The errors that the command line reports as bad input or as a run that
stopped.

They live here, apart from the modules that raise them, so that
``holoflow.cli`` catches them without importing those modules.  Each is
importable from its raising module as well: ``OrbitError``,
``SeriesStartError``, ``CSVError`` and ``IntegrationError`` from
``integrate``, ``ProfileError`` from ``closed_form`` and ``VerifyError``
from ``verify``.
"""

from __future__ import annotations


class OrbitError(ValueError):
    """Invalid orbit specification."""


class SeriesStartError(RuntimeError):
    """The degenerate-limit fixed-point system has no usable solution."""


class CSVError(ValueError):
    """A trajectory CSV file is malformed."""


class IntegrationError(RuntimeError):
    """An integration that stopped before its end; ``trajectory`` holds the
    run so far when there is one."""

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ProfileError(ValueError):
    """A closed-form profile that cannot be built or evaluated."""


class VerifyError(ValueError):
    """A verification input that no check can use."""
