"""Every Hypothesis test draws the same examples on every run.

A test without an explicit seed draws from a seed that Hypothesis derives
from its source, or from a new one each run, and an example database replays
what earlier runs found: either way an edit or a rerun can change the
examples and their time.  So each Hypothesis test carries ``@seed`` and
``database=None``.
"""

import importlib
import re
from pathlib import Path

import pytest

MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))


def given_count(module):
    """The number of ``@given`` decorators in the module's source."""
    return len(re.findall(r"^\s*@given\(", Path(module.__file__).read_text(), re.M))


def hypothesis_tests(module):
    """(name, test) of each Hypothesis test at the module's top level or in its classes."""
    scopes = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
    return [(name, test) for scope in scopes for name, test in scope.items() if hasattr(test, "hypothesis")]


@pytest.mark.parametrize("name", MODULES)
def test_every_hypothesis_test_has_a_seed_and_no_database(name):
    module = importlib.import_module(name)
    tests = hypothesis_tests(module)
    # a test defined inside another function would escape the checks below
    assert len(tests) == given_count(module), name
    for test_name, test in tests:
        assert test._hypothesis_internal_use_seed is not None, f"{name}.{test_name} has no @seed"
        assert test._hypothesis_internal_use_settings.database is None, f"{name}.{test_name} keeps a database"
