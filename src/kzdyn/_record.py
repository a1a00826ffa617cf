"""Record classes: `record`, the part of the standard library's ``dataclass``
decorator that kzdyn uses.

A record's fields are its class annotations, in order; a class attribute of
the same name is the field's default, shared by every instance that takes
it.  `record` adds

- ``__init__``, taking the fields by position or keyword and then calling
  ``__post_init__`` when the class defines it;
- ``__repr__``, printing ``QualName(a=1, b=2)``;
- ``__eq__`` on the tuple of fields, against an instance of the same class
  only, and ``__hash__`` of that tuple;
- ``__setattr__`` and ``__delattr__`` that raise `FrozenInstanceError`.

So every record is what ``dataclass(frozen=True)`` makes, and `record`
takes no options.  Each method is the same closure over the field names
for every class, so decorating a class generates and compiles no source,
and this module imports only `operator`.  ``dataclass`` imports
``inspect`` and compiles each method from source, about 20 ms of the
start-up of a kzdyn process.  Fields of base classes are not collected,
and a class may not define a method that `record` writes.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(cls):
    """Make ``cls`` a frozen record; use as ``@record``."""
    names = tuple(cls.__annotations__)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    defaults: dict = {}
    for name in names:
        if name in cls.__dict__:
            defaults[name] = cls.__dict__[name]
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
    qualname = cls.__qualname__
    init_name = f"{qualname}.__init__"
    post_init = hasattr(cls, "__post_init__")
    setter = object.__setattr__

    def bind(args: tuple, kwargs: dict) -> list:
        # the arguments in field order, or the TypeError Python would raise
        if len(args) > n:
            raise TypeError(
                f"{init_name}() takes {n + 1} positional arguments but {len(args) + 1} were given"
            )
        for key in kwargs:
            if key not in index:
                raise TypeError(f"{init_name}() got an unexpected keyword argument {key!r}")
            if index[key] < len(args):
                raise TypeError(f"{init_name}() got multiple values for argument {key!r}")
        values = list(args)
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in defaults:
                values.append(defaults[name])
            else:
                missing.append(name)
        if missing:
            raise TypeError(
                f"{init_name}() missing required arguments: {', '.join(map(repr, missing))}"
            )
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            setter(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({fields})"

    # the tuple of fields, which ``dataclass`` compares and hashes too;
    # attrgetter of one name returns the bare value
    if n > 1:
        key = attrgetter(*names)
    else:

        def key(self):
            return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        name = method.__name__
        if name in cls.__dict__:
            raise TypeError(f"{qualname} defines {name}, which record writes")
        method.__qualname__ = f"{qualname}.{name}"
        setattr(cls, name, method)
    return cls
