"""The package's value types, which define no dataclasses.

``KUniformHypergraph``, ``CliqueWitness``, ``Box`` and ``BoxFamily`` are
plain classes on ``core._Frozen``: ``==`` and hash by value within one
class, the ``Name(field=value, ...)`` repr, and no assignment or deletion.
The result records are ``typing.NamedTuple`` classes.
"""

import pytest

from cliquecert import (
    BoundReport,
    Box,
    BoxFamily,
    CliqueWitness,
    KUniformHypergraph,
    bound_report,
    hypergraph_from_dict,
)
from cliquecert.core import _Frozen


class Twin(_Frozen):
    """A class with the fields of CliqueWitness, for cross-class equality."""

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", vertices)


# (build, the same value built again, a field name, the expected repr)
CASES = {
    "hypergraph": (
        lambda: KUniformHypergraph(3, 2, frozenset({(0, 1)})),
        lambda: KUniformHypergraph(n=3, k=2, edges=frozenset({(0, 1)})),
        "n",
        "KUniformHypergraph(n=3, k=2, edges=frozenset({(0, 1)}))",
    ),
    "witness": (
        lambda: CliqueWitness((0, 2)),
        lambda: CliqueWitness(vertices=(0, 2)),
        "vertices",
        "CliqueWitness(vertices=(0, 2))",
    ),
    "box": (
        lambda: Box((0, 1), (2, 3)),
        lambda: Box(lo=(0, 1), hi=(2, 3)),
        "lo",
        "Box(lo=(0, 1), hi=(2, 3))",
    ),
    "family": (
        lambda: BoxFamily(1, (Box((0,), (1,)),)),
        lambda: BoxFamily(d=1, boxes=(Box(lo=(0,), hi=(1,)),)),
        "d",
        "BoxFamily(d=1, boxes=(Box(lo=(0,), hi=(1,)),))",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_equal_values_are_equal_and_hash_equal(name):
    build, again, _, _ = CASES[name]
    a, b = build(), again()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", list(CASES))
def test_unequal_values_differ(name):
    a = CASES[name][0]()
    other = {
        "hypergraph": KUniformHypergraph(3, 2, frozenset()),
        "witness": CliqueWitness((0, 1)),
        "box": Box((0, 1), (2, 4)),
        "family": BoxFamily(1, (Box((0,), (2,)),)),
    }[name]
    assert a != other and not a == other


@pytest.mark.parametrize("name", list(CASES))
def test_repr_keeps_the_field_format(name):
    build, _, _, text = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", list(CASES))
def test_assignment_and_deletion_raise(name):
    build, _, field, _ = CASES[name]
    obj = build()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert getattr(obj, field) == before


def test_another_class_with_the_same_fields_is_never_equal():
    w = CliqueWitness((0, 1))
    twin = Twin((0, 1))
    assert w._values() == twin._values()
    assert w != twin and twin != w
    assert w != (0, 1) and w != ((0, 1),)
    assert KUniformHypergraph(2, 2, frozenset()) != (2, 2, frozenset())
    assert Box((0,), (1,)) != ((0,), (1,))
    assert BoxFamily(1, ()) != (1, ())


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"edge arity k must be >= 2, got 1"):
        KUniformHypergraph(3, 1, frozenset())
    with pytest.raises(ValueError, match=r"edge \(1, 0\) is not strictly increasing"):
        KUniformHypergraph(3, 2, frozenset({(1, 0)}))
    with pytest.raises(ValueError, match=r"coordinate 1: lo = 4 > hi = 3"):
        Box((0, 4), (1, 3))
    with pytest.raises(ValueError, match=r"lo has 1 coordinates, hi has 2"):
        Box((0,), (1, 2))
    with pytest.raises(ValueError, match=r"boxes\[0\] has dimension 2, family has 1"):
        BoxFamily(1, (Box((0, 0), (1, 1)),))
    with pytest.raises(ValueError, match=r"dimension must be >= 1, got 0"):
        BoxFamily(0, ())


def test_cached_properties_fill_on_loaded_instances():
    doc = {"n": 4, "k": 2, "edges": [[0, 1], [1, 2], [2, 3]]}
    H = hypergraph_from_dict(doc)
    assert type(H) is KUniformHypergraph
    assert H == KUniformHypergraph(4, 2, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert H.sorted_edges == ((0, 1), (1, 2), (2, 3))
    assert H.missing == ((0, 2), (0, 3), (1, 3))
    assert H.links == {1: 2, 2: 5, 4: 10, 8: 4}
    assert H.missing is H.missing  # cached, not rebuilt
    with pytest.raises(AttributeError):
        H.missing = ()


def test_box_family_caches_its_nerve():
    fam = BoxFamily(1, tuple(Box((i,), (i + 1,)) for i in range(4)))
    G = fam.intersection_graph
    assert G is fam.intersection_graph
    assert sorted(G.edges) == [(0, 1), (1, 2), (2, 3)]
    assert fam.nerve_hypergraph is G


def test_witness_length_is_its_vertex_count():
    assert len(CliqueWitness((3, 5, 8))) == 3
    assert len(CliqueWitness(())) == 0
    assert not CliqueWitness(())


def test_records_are_named_tuples():
    report = bound_report(1, 2, 2, 1)
    assert isinstance(report, tuple) and type(report) is BoundReport
    assert report._fields[:4] == ("alpha", "k", "m", "d")
    assert tuple(report) == tuple(getattr(report, f) for f in report._fields)
    assert repr(report).startswith("BoundReport(alpha=Fraction(1, 1), k=2, m=2, d=1, ")
    with pytest.raises(AttributeError):
        report.k = 3

