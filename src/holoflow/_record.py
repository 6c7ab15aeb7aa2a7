"""Record classes without per-class code generation.

``@record`` and ``@record(frozen=True)`` make a class's own annotated names
its fields, after those of its record bases, as the standard library's
``dataclass`` does.  Unlike ``dataclass``, which builds each method by
``exec`` of generated source (about 1.2 ms per class, paid again by every
fresh process), ``record`` compiles nothing: ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and the frozen ``__setattr__`` and
``__delattr__`` are the shared functions below, which read the class's
``__record_fields__`` tuple of ``(name, default)`` pairs.  Fields are read
from ``cls.__annotations__``, which holds only the class's own annotations
on Python 3.10 and later.

The behaviour kept is the part of ``dataclass`` that holoflow uses:
positional and keyword ``__init__`` with defaults and ``default_factory``,
``__post_init__``, equality only within one class, a frozen record hashing
its field tuple (a mutable one is unhashable), and ``replace``, which
re-runs ``__post_init__``.  A read-only mapping field (``MappingProxyType``)
hashes as the frozen set of its items.  Records get no ``__slots__``, so
``cached_property`` works on frozen ones.
"""

from __future__ import annotations

from types import MappingProxyType

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory):
    """A field default made by calling ``default_factory()`` per instance."""
    return _Factory(default_factory)


def _values(obj) -> tuple:
    return tuple([getattr(obj, name) for name, _ in obj.__record_fields__])


def _init(self, *args, **kwargs):
    cls = type(self)
    fields = cls.__record_fields__
    if len(args) > len(fields):
        raise TypeError(
            f"{cls.__qualname__}.__init__() takes {len(fields) + 1} positional"
            f" arguments but {len(args) + 1} were given"
        )
    for i, (name, default) in enumerate(fields):
        if i < len(args):
            if name in kwargs:
                raise TypeError(
                    f"{cls.__qualname__}.__init__() got multiple values for argument {name!r}"
                )
            value = args[i]
        elif name in kwargs:
            value = kwargs.pop(name)
        elif default is _MISSING:
            raise TypeError(
                f"{cls.__qualname__}.__init__() missing required argument: {name!r}"
            )
        elif isinstance(default, _Factory):
            value = default.make()
        else:
            value = default
        object.__setattr__(self, name, value)
    if kwargs:
        raise TypeError(
            f"{cls.__qualname__}.__init__() got an unexpected keyword argument"
            f" {next(iter(kwargs))!r}"
        )
    post_init = getattr(self, "__post_init__", None)
    if post_init is not None:
        post_init()


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    # a read-only mapping field hashes as its items, as it compares
    values = _values(self)
    return hash(tuple([frozenset(v.items()) if type(v) is MappingProxyType else v for v in values]))


def _repr(self) -> str:
    inner = ", ".join(f"{name}={getattr(self, name)!r}" for name, _ in self.__record_fields__)
    return f"{self.__class__.__qualname__}({inner})"


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, *, frozen: bool = False):
    """Class decorator: ``@record`` or ``@record(frozen=True)``."""

    def wrap(cls):
        fields = {}
        for base in cls.__mro__[-1:0:-1]:
            fields.update(base.__dict__.get("__record_fields__", ()))
        for name in cls.__annotations__:
            default = cls.__dict__.get(name, _MISSING)
            if isinstance(default, _Factory):
                delattr(cls, name)
            fields[name] = default
        cls.__record_fields__ = tuple(fields.items())
        cls.__init__ = _init
        cls.__repr__ = _repr
        cls.__eq__ = _eq
        if frozen:
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
            cls.__hash__ = _hash
        else:
            cls.__hash__ = None
        return cls

    return wrap if cls is None else wrap(cls)


def replace(obj, /, **changes):
    """A new record of ``obj``'s class with ``changes``; ``__post_init__`` runs."""
    for name, _ in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
