"""The contract of the value classes: repr, equality, hashing, ordering,
immutability, pickling and keyword construction, one table row per class."""

import copy
import pickle

import pytest

from shipat import (
    Decomposition,
    Deletion,
    DyckPath,
    HasseGraph,
    Part,
    RunForm,
    ShiTableau,
    StandardTableau2,
    WilfReport,
)
from shipat.covers import AuditReport
from shipat.verify import CheckResult

UD, UDUD, UUDD = DyckPath("UD"), DyckPath("UDUD"), DyckPath("UUDD")
PEAK = Part(component=UD, kind="connecting", peak_count=1)

# class, keyword arguments, exact repr, keyword arguments of a different
# value, and keyword arguments the constructor rejects (None: no validation).
ROWS = [
    (DyckPath, {"word": "UUDD"}, "DyckPath(word='UUDD')",
     {"word": "UDUD"}, {"word": "UDDU"}),
    (ShiTableau, {"area": (0, 1, 1)}, "ShiTableau(area=(0, 1, 1))",
     {"area": (0, 0, 1)}, {"area": (0, 2)}),
    (StandardTableau2, {"top": (1, 2), "bottom": (3, 4)},
     "StandardTableau2(top=(1, 2), bottom=(3, 4))",
     {"top": (1, 3), "bottom": (2, 4)}, {"top": (1, 3), "bottom": (4, 2)}),
    (RunForm, {"runs": (2, 2)}, "RunForm(runs=(2, 2))",
     {"runs": (1, 1, 1, 1)}, {"runs": (2, 0)}),
    (Part, {"component": UD, "kind": "connecting", "peak_count": 1},
     "Part(component=DyckPath(word='UD'), kind='connecting', peak_count=1)",
     {"component": UUDD, "kind": "irreducible"}, None),
    (Decomposition, {"level": "irreducible", "parts": (PEAK,)},
     "Decomposition(level='irreducible', parts=(Part(component="
     "DyckPath(word='UD'), kind='connecting', peak_count=1),))",
     {"level": "irreducible", "parts": ()}, None),
    (Deletion, {"i": 2, "k": 1}, "Deletion(i=2, k=1)",
     {"i": 2, "k": 2}, {"i": 1, "k": 0}),
    (HasseGraph, {"levels": ((UD,), (UDUD, UUDD)),
                  "edges": ((UDUD, UD), (UUDD, UD))},
     "HasseGraph(levels=((DyckPath(word='UD'),), (DyckPath(word='UDUD'), "
     "DyckPath(word='UUDD'))), edges=((DyckPath(word='UDUD'), "
     "DyckPath(word='UD')), (DyckPath(word='UUDD'), DyckPath(word='UD'))))",
     {"levels": ((UD,),), "edges": ()}, None),
    (WilfReport, {"tag_a": "te", "tag_b": "tg", "k": 2,
                  "counts_a": (1, 1, 2), "counts_b": (1, 1, 2)},
     "WilfReport(tag_a='te', tag_b='tg', k=2, counts_a=(1, 1, 2), "
     "counts_b=(1, 1, 2))",
     {"tag_a": "te", "tag_b": "tg", "k": 2, "counts_a": (1, 1, 2),
      "counts_b": (1, 1, 3)}, None),
    (CheckResult, {"suite": "core", "name": "bounce", "ok": True,
                   "detail": "fine"},
     "CheckResult(suite='core', name='bounce', ok=True, detail='fine')",
     {"suite": "core", "name": "bounce", "ok": False, "detail": "fine"}, None),
    (AuditReport, {"max_semilength": 3, "paths_checked": 5,
                   "branch_counts": {"zigzag": 5}, "mismatches": []},
     "AuditReport(max_semilength=3, paths_checked=5, "
     "branch_counts={'zigzag': 5}, mismatches=[])",
     {"max_semilength": 3}, None),
]
IDS = [row[0].__name__ for row in ROWS]
FROZEN = [row for row in ROWS if row[0] is not AuditReport]
ORDERED = (DyckPath, ShiTableau)


@pytest.mark.parametrize("cls, kwargs, text, other, bad", ROWS, ids=IDS)
def test_keyword_construction_and_repr(cls, kwargs, text, other, bad):
    value = cls(**kwargs)
    assert all(getattr(value, name) == arg for name, arg in kwargs.items())
    assert cls(*kwargs.values()) == value
    assert cls.__match_args__ == tuple(kwargs)
    assert repr(value) == text
    if bad is not None:
        with pytest.raises(ValueError):
            cls(**bad)


@pytest.mark.parametrize("cls, kwargs, text, other, bad", ROWS, ids=IDS)
def test_equality_is_by_class_and_fields(cls, kwargs, text, other, bad):
    value = cls(**kwargs)
    assert value == cls(**kwargs) and not value != cls(**kwargs)
    assert value != cls(**other)
    fields = tuple(kwargs.values())
    assert value != fields
    assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("cls, kwargs, text, other, bad", FROZEN,
                         ids=[row[0].__name__ for row in FROZEN])
def test_frozen_hash_is_the_field_tuple_hash(cls, kwargs, text, other, bad):
    value = cls(**kwargs)
    assert hash(value) == hash(tuple(kwargs.values()))
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(value, name, kwargs[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, name) == kwargs[name]


@pytest.mark.parametrize("cls, kwargs, text, other, bad", ROWS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, kwargs, text, other, bad):
    value = cls(**kwargs)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and repr(back) == text
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text


@pytest.mark.parametrize("cls, kwargs, text, other, bad", ROWS, ids=IDS)
def test_ordering_only_where_declared(cls, kwargs, text, other, bad):
    value, different = cls(**kwargs), cls(**other)
    if cls in ORDERED:
        # the "different" row sorts first: 'D' < 'U', and (0, 0, 1) < (0, 1, 1)
        assert different < value and different <= value
        assert value > different and value >= different
        assert value <= cls(**kwargs) and value >= cls(**kwargs)
        assert sorted([value, different]) == [different, value]
    else:
        with pytest.raises(TypeError):
            value < different  # noqa: B015
    stranger = ShiTableau((0,)) if cls is DyckPath else UD
    with pytest.raises(TypeError):
        value < stranger  # noqa: B015


def _as_lists(value):
    """The same value with every tuple, at any depth, made a list."""
    if isinstance(value, tuple):
        return [_as_lists(item) for item in value]
    return value


SEQUENCE_ROWS = [row for row in FROZEN
                 if any(isinstance(arg, tuple) for arg in row[1].values())]


@pytest.mark.parametrize("cls, kwargs, text, other, bad", SEQUENCE_ROWS,
                         ids=[row[0].__name__ for row in SEQUENCE_ROWS])
def test_sequence_fields_are_stored_as_tuples(cls, kwargs, text, other, bad):
    value = cls(**kwargs)
    from_lists = cls(**{name: _as_lists(arg) for name, arg in kwargs.items()})
    assert from_lists == value and hash(from_lists) == hash(value)
    assert repr(from_lists) == text


def test_audit_report_refuses_assignment():
    branch_counts, mismatches = {"zigzag": 5}, []
    report = AuditReport(3, 5, branch_counts, mismatches)
    for name in AuditReport.__slots__:
        with pytest.raises(AttributeError):
            setattr(report, name, getattr(report, name))
        with pytest.raises(AttributeError):
            delattr(report, name)
    branch_counts["zigzag"] += 1  # the report holds copies of its arguments
    mismatches.append(("UD", "minimum", "lower", 1, 0))
    assert report == AuditReport(max_semilength=3, paths_checked=5,
                                 branch_counts={"zigzag": 5}, mismatches=[])
    assert AuditReport(3).branch_counts == {}  # defaults are not shared
    with pytest.raises(TypeError):
        hash(report)  # a dict field is unhashable
