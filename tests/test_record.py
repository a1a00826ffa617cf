"""`kzdyn._record.record` against ``dataclasses.dataclass(frozen=True)``, on
twin classes of every shape kzdyn's records take: plain, with defaults, with
a raising ``__post_init__`` and with a single field.

``Identity`` and ``Mutable`` keep the bodies of the records that once
compared by identity (``eq=False``) or could be assigned to, such as
``SuiteConfig``; every record is frozen and compares by value now, so these
shapes must behave as the others do."""

import dataclasses
from typing import Optional

import pytest

from kzdyn import _record


def _shapes(decorate) -> dict[str, type]:
    # the same class bodies under either decorator; the qualnames agree, so
    # the reprs of the two twins must be the same text
    @decorate
    class Frozen:
        a: int
        b: tuple

    @decorate
    class Identity:
        h: int
        terms: tuple
        verified: bool

    @decorate
    class Mutable:
        a: int
        b: Optional[tuple] = None

    @decorate
    class Defaults:
        kind: str
        h: Optional[int] = None
        switched: frozenset = frozenset()

    @decorate
    class Checked:
        m: int

        def __post_init__(self):
            if self.m < 0:
                raise ValueError("dimension must be non-negative")

    @decorate
    class Single:
        perm: tuple

    shapes = (Frozen, Identity, Mutable, Defaults, Checked, Single)
    return {cls.__name__: cls for cls in shapes}


OURS = _shapes(_record.record)
THEIRS = _shapes(dataclasses.dataclass(frozen=True))

# arguments for two instances with equal fields, and for one that differs
ARGS = {
    "Frozen": ((1, (2, 3)), (1, (2, 4))),
    "Identity": ((1, ((2, 1),), True), (1, ((2, 1),), False)),
    "Mutable": ((1, (2,)), (2,)),
    "Defaults": (("interp", 2, frozenset({(1, 2)})), ("standard",)),
    "Checked": ((0,), (3,)),
    "Single": (((2, 1, 3),), ((1, 2, 3),)),
}


def _twins(name: str):
    return OURS[name], THEIRS[name]


def _outcome(call):
    # the value of call(), or the type of the exception it raised
    try:
        return call()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_repr_and_equality_match_dataclasses(name):
    same, other = ARGS[name]
    ours, theirs = _twins(name)
    for cls, twin in ((ours, theirs), (theirs, ours)):
        x, y, z = cls(*same), cls(*same), cls(*other)
        assert x == x and x == y and x != z
        # a record equals only an instance of its own class
        assert x != twin(*same) and x != same
    for args in ARGS[name]:
        assert repr(ours(*args)) == repr(theirs(*args))


@pytest.mark.parametrize("name", sorted(ARGS))
def test_hash_matches_dataclasses(name):
    ours, theirs = _twins(name)
    # the hash of the tuple of fields, so set and dict order agree too
    for args in ARGS[name]:
        fields = tuple(vars(theirs(*args)).values())
        assert hash(ours(*args)) == hash(theirs(*args)) == hash(fields)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_arguments_by_position_or_keyword(name):
    ours, theirs = _twins(name)
    names = list(theirs.__annotations__)
    same, _ = ARGS[name]
    for cls in (ours, theirs):
        by_keyword = cls(**dict(zip(names, same)))
        assert vars(by_keyword) == vars(cls(*same))
        assert list(vars(by_keyword)) == names
    calls = {
        "missing": lambda cls: cls(),
        "unknown": lambda cls: cls(*same, nonfield=1),
        "repeated": lambda cls: cls(*same, **{names[0]: same[0]}),
        "too many": lambda cls: cls(*same, *range(len(names))),
    }
    for kind, call in calls.items():
        assert _outcome(lambda: call(ours)) is _outcome(lambda: call(theirs)) is TypeError, kind


@pytest.mark.parametrize("name", sorted(ARGS))
def test_frozen_fields_cannot_change(name):
    same, _ = ARGS[name]
    field_name = list(_twins(name)[1].__annotations__)[0]
    for cls in _twins(name):
        x = cls(*same)
        for change in (
            lambda: setattr(x, field_name, same[0]),
            lambda: delattr(x, field_name),
            lambda: setattr(x, "extra", 1),
        ):
            assert issubclass(_outcome(change), AttributeError)
        assert vars(x) == vars(cls(*same))


def test_post_init_runs_after_the_fields_are_set():
    for cls in _twins("Checked"):
        assert cls(m=2).m == 2
        with pytest.raises(ValueError, match="non-negative"):
            cls(-1)


@pytest.mark.parametrize(
    "decorate",
    [_record.record, dataclasses.dataclass(frozen=True)],
    ids=["record", "dataclass"],
)
def test_a_field_without_default_after_one_with_is_rejected(decorate):
    with pytest.raises(TypeError):

        @decorate
        class Late:
            a: int = 0
            b: int


def test_a_method_record_writes_is_rejected():
    with pytest.raises(TypeError, match="__repr__"):

        @_record.record
        class Own:
            a: int

            def __repr__(self):
                return "own"
