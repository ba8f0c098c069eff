"""The contract of the package's small immutable value classes.

Each class is equal to another of its own class with equal fields, hashes as
the tuple of its fields, refuses attribute assignment, is never equal to the
bare tuple of its fields, and validates its fields with fixed messages.  The
arithmetic values take their reflected operators, division and refused
assignment from the bases in ``scalar`` and ``freealg``.
"""

import re

import pytest

from diskhall.freealg import Generator, NCPolynomial, Relation, zgen
from diskhall.hall import HallElement
from diskhall.presentation import RelationSet
from diskhall.repq import DerivedObject
from diskhall.scalar import ONE, V, QuadraticScalar
from diskhall.surface import (FoliationData, GluingSpec, GradedChord, MarkedDisk,
                              SurfaceConfig)


def _disk(family="E"):
    return MarkedDisk(FoliationData(3, (1, 0, 0)), family)


def _relation(label="r"):
    return Relation(label, zgen(1, 0) * zgen(2, 1), NCPolynomial.zero())


# class -> a function returning fresh field values, in declaration order
FIELDS = {
    Generator: lambda: ("z", (1, 3), -1),
    Relation: lambda: ("r", zgen(1, 0) * zgen(2, 1), NCPolynomial.zero()),
    DerivedObject: lambda: (((1, 2, 0), (2, 4, -1)),),
    FoliationData: lambda: (4, (0, 1, 0, 1)),
    MarkedDisk: lambda: (FoliationData(3, (1, 0, 0)), "F"),
    GradedChord: lambda: (1, 3, 2),
    GluingSpec: lambda: (_disk("E"), 2, _disk("F"), 1),
    SurfaceConfig: lambda: ((_disk("E"), _disk("F")), ((0, 2, 1, 1),)),
    RelationSet: lambda: ("set", (_relation("a"), _relation("b")), 3, None),
}
CLASSES = list(FIELDS)
IDS = [cls.__name__ for cls in CLASSES]
NAMES = {
    Generator: ("family", "index", "shift"),
    Relation: ("label", "lhs", "rhs"),
    DerivedObject: ("summands",),
    FoliationData: ("m", "h"),
    MarkedDisk: ("foliation", "family"),
    GradedChord: ("a", "b", "shift"),
    GluingSpec: ("left", "left_arc", "right", "right_arc"),
    SurfaceConfig: ("disks", "gluings"),
    RelationSet: ("name", "relations", "oracle_m", "expand"),
}


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls):
    fields = FIELDS[cls]()
    x, y = cls(*fields), cls(*FIELDS[cls]())
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    assert tuple(getattr(x, name) for name in NAMES[cls]) == fields


# class -> field values that differ from FIELDS[cls](), each alone; the m of
# FoliationData cannot change without its h, so it stays
OTHER = {
    Generator: ("E", 2, 0),
    Relation: ("s", zgen(1, 0), zgen(2, 0)),
    DerivedObject: (((1, 3, 0),),),
    FoliationData: (4, (1, 0, 1, 0)),
    MarkedDisk: (FoliationData(4, (0, 1, 0, 1)), "E"),
    GradedChord: (2, 4, 0),
    GluingSpec: (_disk("G"), 1, _disk("H"), 3),
    SurfaceConfig: ((_disk("G"),), ()),
    RelationSet: ("other", (_relation("c"),), None, zgen),
}


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_different_field_gives_a_different_object(cls):
    x = cls(*FIELDS[cls]())
    for i, value in enumerate(OTHER[cls]):
        fields = list(FIELDS[cls]())
        if value == fields[i]:
            continue
        fields[i] = value
        assert cls(*fields) != x and not cls(*fields) == x


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_attributes_cannot_be_assigned(cls):
    x = cls(*FIELDS[cls]())
    for name in NAMES[cls]:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_an_object_is_not_the_tuple_of_its_fields(cls):
    fields = FIELDS[cls]()
    x = cls(*fields)
    assert x != fields and fields != x
    assert not x == fields


@pytest.mark.parametrize("make, message", [
    (lambda: FoliationData(1, (0,)), "need at least 2 marked intervals, got m=1"),
    (lambda: FoliationData(3, (1, 0)), "foliation vector has length 2, expected 3"),
    (lambda: FoliationData(4, (1, 1, 1, 1)),
     "foliation weights must sum to m - 2 = 2, got 4"),
    (lambda: GradedChord(3, 3), "need 1 <= a < b, got (3, 3)"),
    (lambda: GradedChord(0, 2, 1), "need 1 <= a < b, got (0, 2)"),
    (lambda: GluingSpec(_disk(), 4, _disk(), 1), "left arc 4 out of range 1..3"),
    (lambda: GluingSpec(_disk(), 1, _disk(), 0), "right arc 0 out of range 1..3"),
    (lambda: RelationSet("bad", (_relation("b"), _relation("a"), _relation("b"),
                                 _relation("a"))),
     "duplicate relation labels: ['a', 'b']"),
], ids=["foliation-m", "foliation-length", "foliation-sum", "chord-equal-ends",
        "chord-zero", "gluing-left", "gluing-right", "relation-set-labels"])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_foliation_weights_are_stored_as_a_tuple():
    e = FoliationData(4, [0, 1, 0, 1])
    assert e.h == (0, 1, 0, 1) and e == FoliationData(4, (0, 1, 0, 1))
    assert hash(e) == hash((4, (0, 1, 0, 1)))


def test_defaults():
    assert MarkedDisk(FoliationData(3, (1, 0, 0))).family == "E"
    assert GradedChord(1, 2).shift == 0
    rs = RelationSet("r", ())
    assert rs.oracle_m is None and rs.expand is None


def test_arithmetic_bases():
    """The reflected operators, division and the refused assignment that the
    fields (Q(v), Q(sqrt q)) and the combinations (polynomials, Hall
    elements) take from their bases; a combination has no division, and
    Hall elements at different q do not mix."""
    root2 = QuadraticScalar(2, 0, 1)
    x, h = zgen(1, 0), HallElement.basis(2, DerivedObject.simple(1), root2)
    assert (1 - V) + V == 1 + 0 * V == ONE and V - 1 == -(1 - V)
    assert 1 / V == V.inverse() and (V + 1) / V == 1 + 1 / V
    assert 1 / root2 == root2 / 2 and 2 - root2 == -(root2 - 2)
    assert 1 - x == -(x - 1) and (2 + x) - x == NCPolynomial.scalar(2)
    assert 1 - h == -(h - 1) and h.scale(root2) - 2 == HallElement.basis(
        2, DerivedObject.simple(1), 2) - 2
    for value, name in ((V, "num"), (root2, "a"), (x, "terms"), (h, "q")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, getattr(value, name))
    for value in (x, h):
        with pytest.raises(TypeError):
            value / 2
        with pytest.raises(TypeError):
            2 / value
    with pytest.raises(ValueError):
        h + HallElement.unit(3)
