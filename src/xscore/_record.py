"""Frozen value records: the part of `dataclasses` the package uses.

`@record` turns a class whose body annotates its fields into an immutable
value class.  The fields are the class's own annotations, in order; they
are read as names and never evaluated.  A field with a class-level value
takes it as its default.  The class gains an `__init__` (positional or
keyword, then `__post_init__` if the class defines one), a `__repr__`
such as `Var(name='x')`, an `__eq__` over the compared fields that
returns NotImplemented for any other class, a matching `__hash__`, and a
`__setattr__`/`__delattr__` that raise AttributeError.  `compare` names
the fields that equality and hashing read (all of them by default).

Unlike `@dataclass`, this writes no source and runs no `exec`, so it
costs no import of `inspect` and little time per class.
"""
from operator import attrgetter

_set = object.__setattr__


def record(cls=None, /, *, compare=None):
    """Make `cls` a frozen value class, as the module docstring describes."""
    if cls is None:
        return lambda cls: record(cls, compare=compare)
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    count = len(names)
    post_init = "__post_init__" in cls.__dict__
    compared = tuple(compare or names)
    key = attrgetter(*compared)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        # `object.__setattr__` keeps the values in the instance's compact
        # attribute storage; touching `self.__dict__` would build a dict.
        # The index walk measured faster than `zip(names, args)`.
        i = 0
        for value in args:
            _set(self, names[i], value)
            i += 1
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    # The hash of the tuple of compared values, as `@dataclass` computes it.
    if len(compared) == 1:
        def __hash__(self):
            return hash((key(self),))
    else:
        def __hash__(self):
            return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def _bind(cls, names, defaults, args, kwargs):
    """The field values of a call that is not one positional value per field."""
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__name__}() got {len(args)} positional arguments for {len(names)} fields"
        )
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names or name in values:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values and name not in defaults:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    return [values[n] if n in values else defaults[n] for n in names]
