"""``holoflow._record`` against ``dataclasses`` as the oracle.

The same class bodies are defined once with ``dataclasses`` and once with
the helper, and every probe must observe the same outcome on both: the same
``repr`` text or value, or an exception of the same kind.
"""

import dataclasses
from functools import cached_property
from types import SimpleNamespace

import pytest

from holoflow import _record


def define(record, field, replace):
    @record(frozen=True)
    class Spec:
        """Normalised in ``__post_init__``, as ``OrbitSpec`` is."""

        kind: str
        values: dict
        flag: bool = False

        def __post_init__(self):
            if not self.kind:
                raise ValueError("empty kind")
            object.__setattr__(self, "kind", self.kind.upper())

    @record(frozen=True)
    class Base:
        a: int
        b: int = 1

        _TABLE = ()  # not a field

        @cached_property
        def total(self):
            return [self.a + self.b]

    @record(frozen=True)
    class Child(Base):
        _TABLE = (1, 2)

    @record(frozen=True)
    class Grand(Base):
        c: int = 3

    @record(frozen=True)
    class Holder:
        table: dict

    @record
    class Mutable:
        t: float
        values: dict
        primitive: float = 0.0
        stats: dict = field(default_factory=dict)

    return SimpleNamespace(**locals())


ORACLE = define(dataclasses.dataclass, dataclasses.field, dataclasses.replace)
HELPER = define(_record.record, _record.field, _record.replace)


def _frozen_assign(ns):
    spec = ns.Spec("q", {})
    spec.kind = "m"


def _frozen_assign_new(ns):
    spec = ns.Spec("q", {})
    spec.other = 1


def _frozen_delete(ns):
    spec = ns.Spec("q", {})
    del spec.kind


def _mutable_assign(ns):
    run = ns.Mutable(1.0, {"a": 1.0})
    run.t = 2.0
    run.stats["n"] = 1
    return repr(run)


def _fresh_factory(ns):
    one, two = ns.Mutable(0.0, {}), ns.Mutable(0.0, {})
    one.stats["n"] = 1
    return one.stats is not two.stats, two.stats


def _cached(ns):
    base = ns.Base(2, 3)
    first = base.total
    return first, base.total is first, repr(base), base == ns.Base(2, 3)


PROBES = {
    "positional": lambda ns: repr(ns.Spec("q", {"a": 1})),
    "keyword": lambda ns: repr(ns.Spec(values={}, kind="m", flag=True)),
    "mixed": lambda ns: repr(ns.Spec("q", values={"a": 1})),
    "missing argument": lambda ns: ns.Spec("q"),
    "extra positional": lambda ns: ns.Spec("q", {}, True, 4),
    "unknown keyword": lambda ns: ns.Spec("q", {}, nope=1),
    "argument given twice": lambda ns: ns.Spec("q", {}, kind="m"),
    "post_init raises": lambda ns: ns.Spec("", {}),
    "defaults": lambda ns: repr(ns.Mutable(1.0, {})),
    "fresh default_factory": _fresh_factory,
    "a factory leaves no class attribute": lambda ns: ns.Mutable.stats,
    "mutable assignment": _mutable_assign,
    "inherited fields": lambda ns: (repr(ns.Child(1)), ns.Child._TABLE, ns.Base._TABLE),
    "class attribute is no field": lambda ns: ns.Child(1, 2, 3),
    "subclass adds a field": lambda ns: repr(ns.Grand(1, c=5)),
    "equal": lambda ns: (ns.Base(1) == ns.Base(1, 1), ns.Base(1) != ns.Base(2)),
    "equal only within a class": lambda ns: (ns.Base(1) == ns.Child(1), ns.Base(1) == (1, 1)),
    "hash of the field tuple": lambda ns: hash(ns.Grand(1, 2, 3)) == hash((1, 2, 3)),
    "equal records hash equal": lambda ns: hash(ns.Spec("q", 1)) == hash(ns.Spec("Q", 1)),
    "unhashable through a dict": lambda ns: hash(ns.Holder({})),
    "mutable is unhashable": lambda ns: hash(ns.Mutable(0.0, {})),
    "frozen assignment": _frozen_assign,
    "frozen new attribute": _frozen_assign_new,
    "frozen deletion": _frozen_delete,
    "replace": lambda ns: repr(ns.replace(ns.Spec("q", {}, True), kind="m")),
    "replace keeps the class": lambda ns: repr(ns.replace(ns.Child(1), b=4)),
    "replace runs post_init": lambda ns: ns.replace(ns.Spec("q", {}), kind=""),
    "replace an unknown field": lambda ns: ns.replace(ns.Spec("q", {}), nope=1),
    "replace a mutable record": lambda ns: repr(ns.replace(ns.Mutable(1.0, {}), t=2.0)),
    "cached_property on a frozen record": _cached,
}


def observe(probe, ns):
    """The probe's value, or the kind of exception it raised."""
    try:
        return "value", probe(ns)
    except (TypeError, AttributeError, ValueError) as exc:
        return "raises", next(k for k in (TypeError, AttributeError, ValueError) if isinstance(exc, k))


@pytest.mark.parametrize("name", list(PROBES))
def test_record_behaves_as_a_dataclass(name):
    assert observe(PROBES[name], HELPER) == observe(PROBES[name], ORACLE)


def test_probes_see_each_behaviour():
    """The oracle's answers, so that a probe cannot pass by observing nothing."""
    assert observe(PROBES["positional"], ORACLE) == (
        "value", "define.<locals>.Spec(kind='Q', values={'a': 1}, flag=False)"
    )
    assert observe(PROBES["fresh default_factory"], ORACLE) == ("value", (True, {}))
    for name in ("missing argument", "extra positional", "unknown keyword",
                 "argument given twice", "class attribute is no field",
                 "unhashable through a dict", "mutable is unhashable",
                 "replace an unknown field"):
        assert observe(PROBES[name], ORACLE) == ("raises", TypeError), name
    for name in ("frozen assignment", "frozen new attribute", "frozen deletion",
                 "a factory leaves no class attribute"):
        assert observe(PROBES[name], ORACLE) == ("raises", AttributeError), name
    for name in ("post_init raises", "replace runs post_init"):
        assert observe(PROBES[name], ORACLE) == ("raises", ValueError), name
    assert observe(PROBES["equal only within a class"], ORACLE) == ("value", (False, False))
    assert observe(PROBES["cached_property on a frozen record"], ORACLE) == (
        "value", ([5], True, "define.<locals>.Base(a=2, b=3)", True)
    )


def test_no_code_is_generated(monkeypatch):
    """Defining a record runs no ``exec``, ``eval`` or ``compile``."""
    import builtins

    def refuse(*args, **kwargs):
        raise AssertionError("code generated")

    for name in ("exec", "eval", "compile"):
        monkeypatch.setattr(builtins, name, refuse)
    ns = define(_record.record, _record.field, _record.replace)
    assert repr(ns.Grand(1)) == "define.<locals>.Grand(a=1, b=1, c=3)"


def test_read_only_mapping_fields_hash_as_their_items():
    """``ODESystem.rhs`` and ``OrbitSpec.values`` are read-only mappings.
    Equal records hash equal and work as set members; a dataclass would
    refuse to hash them."""
    from holoflow.flow import derive_flow
    from holoflow.homogeneous import m_model
    from holoflow.integrate import OrbitSpec
    from mutations import perturbed_system

    shared = m_model(1, 1).derivation.sys
    fresh = derive_flow(m_model.__wrapped__(1, 1))
    assert fresh is not shared and fresh == shared
    assert hash(fresh) == hash(shared)
    assert {shared, fresh, perturbed_system(shared, "a")} == {shared, perturbed_system(shared, "a")}

    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    same = OrbitSpec("q", "s2xs2", {"c": "1", "b": 1})
    assert spec == same and hash(spec) == hash(same)
    assert len({spec, same, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 2})}) == 2


def test_a_public_record_rejects_wrong_arguments_and_assignment():
    """The record errors, met on a class of ``holoflow.__all__``: the four
    argument errors of ``__init__`` and the frozen assignment and deletion."""
    from holoflow import SymbolTable

    for args, kwargs, message in (
        ((("a",), (), 3), {}, r"takes 3 positional arguments but 4 were given"),
        ((("a",),), {"base": ("b",)}, r"got multiple values for argument 'base'"),
        ((), {}, r"missing required argument: 'base'"),
        ((("a",),), {"bogus": 1}, r"got an unexpected keyword argument 'bogus'"),
    ):
        with pytest.raises(TypeError, match=message):
            SymbolTable(*args, **kwargs)
    table = SymbolTable(("a",))
    with pytest.raises(_record.FrozenInstanceError, match="cannot assign to field 'base'"):
        table.base = ("b",)
    with pytest.raises(_record.FrozenInstanceError, match="cannot delete field 'base'"):
        del table.base
