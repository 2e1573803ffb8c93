"""The immutable value types and records: equality, hashing, repr and refused assignment."""

import copy
import pickle

import pytest

from betti4.atlas import ENTRIES, AtlasEntry
from betti4.errors import InvariantViolation
from betti4.monomials import MonomialIdeal
from betti4.tables import BettiTable
from betti4.twins import TwinBundle, build_bundle
from betti4.values import Value, set_field

KOSZUL = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))

# the types whose constructor checks an invariant derive from Value; the
# rest are namedtuple records
CHECKED = ("MonomialIdeal", "BettiTable")

# (build one value, build a different value of the same type); every call
# builds a new instance
CASES = {
    "MonomialIdeal": (lambda: MonomialIdeal(KOSZUL), lambda: MonomialIdeal(KOSZUL[:3])),
    "BettiTable": (lambda: BettiTable((1, 2, 1, 0, 0)), lambda: BettiTable((1, 1, 0, 0, 0))),
    "AtlasEntry": (lambda: AtlasEntry(5, (1, 2, 4, 8), 15, 0, 0), lambda: ENTRIES[6]),
    "TwinBundle": (lambda: build_bundle(MonomialIdeal(KOSZUL), (1, 1, 1, 1)),
                   lambda: build_bundle(MonomialIdeal(KOSZUL), (1, 1, 0, 0))),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_and_hash_equal(name):
    make, make_other = CASES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name
    assert isinstance(value, Value) == (name in CHECKED)
    assert isinstance(value, tuple) == (name not in CHECKED)
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != make_other() and len({value, twin, make_other()}) == 2


def _field_names(value):
    """A checked type's fields are its __slots__, a record's its _fields."""
    return type(value).__slots__ if isinstance(value, Value) else type(value)._fields


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    assert _field_names(value)
    for field in _field_names(value):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_rebuild_equal_values(name):
    value = CASES[name][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_only_the_ideal_and_the_table_are_checked_types():
    # the command line and the oracle load every module of the package
    import betti4.cli  # noqa: F401
    import betti4.homology  # noqa: F401

    assert sorted(cls.__name__ for cls in Value.__subclasses__()
                  if cls.__module__.startswith("betti4.")) == sorted(CHECKED)


def test_equality_holds_only_within_one_type():
    class Gens(Value):
        __slots__ = ("gens",)

        def __init__(self, gens):
            set_field(self, "gens", gens)

    # same field names and values, different types
    assert MonomialIdeal(()) != Gens(())
    assert Gens(()) != MonomialIdeal(())
    assert MonomialIdeal(KOSZUL) != KOSZUL
    # a record, by contrast, equals the plain tuple of its fields
    assert ENTRIES[3] == (3, (1, 2), 3, 1, 0)


def test_repr_names_every_field():
    assert repr(MonomialIdeal(((1, 0, 0, 0),))) == "MonomialIdeal(gens=((1, 0, 0, 0),))"
    rows = {(0, 0, 0, 0): (1, 0, 0, 0, 0), (1, 0, 0, 0): (0, 1, 0, 0, 0)}
    assert repr(BettiTable((1, 1, 0, 0, 0), rows)) == (
        "BettiTable(betti=(1, 1, 0, 0, 0), "
        "multigraded={(0, 0, 0, 0): (1, 0, 0, 0, 0), (1, 0, 0, 0): (0, 1, 0, 0, 0)})"
    )
    assert repr(ENTRIES[3]) == "AtlasEntry(id=3, gens=(1, 2), y_m=3, beta2=1, beta3=0)"


def test_a_table_with_rows_is_not_hashable():
    with pytest.raises(TypeError):
        hash(BettiTable((1, 0, 0, 0, 0), {(0, 0, 0, 0): (1, 0, 0, 0, 0)}))


def test_constructors_take_their_fields_by_keyword():
    assert BettiTable(betti=(1, 0, 0, 0, 0), multigraded=None) == BettiTable((1, 0, 0, 0, 0))
    assert MonomialIdeal(gens=KOSZUL) == MonomialIdeal(KOSZUL)
    bundle = build_bundle(MonomialIdeal(KOSZUL), (1, 1, 1, 1))
    assert TwinBundle(**{field: getattr(bundle, field) for field in TwinBundle._fields}) == bundle


def test_from_rows_sums_the_columns_once_and_checks_the_rows():
    rows = {(0, 0, 0, 0): (1, 0, 0, 0, 0), (1, 0, 0, 0): (0, 1, 0, 0, 0)}
    table = BettiTable.from_rows(rows, want_multigraded=True)
    assert table == BettiTable((1, 1, 0, 0, 0), rows) and table.multigraded is rows
    assert BettiTable.from_rows(rows) == BettiTable((1, 1, 0, 0, 0))
    for bad in ({}, {(0, 0, 0, 0): (1, 0, 0, 0)}, {(0, 0, 0, 0): (1, 0, 0, 0, 0, 0)},
                {(0, 0, 0, 0): (1, 0, 0, 0, 0), (1, 0, 0, 0): (0, 1, 0, 0)},
                {(0, 0, 0, 0): (1, 1, 0, 0, 0), (1, 0, 0, 0): (0, -1, 0, 0, 0)}):
        with pytest.raises(InvariantViolation, match="5-tuples of non-negative entries"):
            BettiTable.from_rows(bad, want_multigraded=True)


def test_validated_constructors_keep_their_errors():
    with pytest.raises(InvariantViolation, match=r"bad monomial \(0, -1, 0, 0\)"):
        MonomialIdeal(((0, 1, 1, 0), (0, -1, 0, 0)))
    with pytest.raises(InvariantViolation, match="bad monomial"):
        MonomialIdeal(((0, 1, 0),))
    # an exponent must be exactly an int, checked before min compares it
    for bad in ((float("nan"), 0, 0, 0), (1.5, 2, 0, 0), (True, 0, 0, 0), ("a", 0, 0, 0)):
        with pytest.raises(InvariantViolation, match=r"bad monomial \("):
            MonomialIdeal(((0, 1, 1, 0), bad))
    with pytest.raises(TypeError):
        MonomialIdeal(([0, 1, 0, 0],))
    # a Betti table takes exactly ints too, checked before any
    # comparison reads them
    nan = float("nan")
    for bad in ((1, nan, 0, 0, 0), (1.0, 1, 0, 0, 0), (1, True, 0, 0, 0)):
        with pytest.raises(InvariantViolation, match=r"bad Betti numbers \("):
            BettiTable(bad)
    with pytest.raises(InvariantViolation, match="multigraded rows"):
        BettiTable((1, 0, 0, 0, 0), {(0, 0, 0, 0): (1.0, 0, 0, 0, 0)})
