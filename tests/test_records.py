"""The Record value classes against dataclass twins.

Every class below but ``Projection``, which is younger, was a
``@dataclass``.  Its twin is built here with ``dataclasses.make_dataclass``
from the same fields, defaults and frozen flag, and both are given the same
field values: equality, hashability, hashes, repr, defaults and the calls
that raise TypeError must agree.
"""

import dataclasses
import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from semlint import MAX_URL_TIMEOUT
from semlint.builtins import DEFAULT_MAX_PROBES, UrlProbeResult
from semlint.cli import RunConfig, RunOutcome
from semlint.dsl_parser import Token
from semlint.engine import DelayedTest, PassOneResult
from semlint.record import Record
from semlint.reporting import FORMATS, Message
from semlint.rule_ast import (Assign, AttrPattern, Contains, EnvRule, Eq,
                              PAnon, PElem, PEmptyElem, PText, PVar, Rule,
                              RuleSet, TestRule)
from semlint.terms import Functor, Var
from semlint.xml_frontend import Element, Projection, SourcePos, Text
from test_rule_index import trees

# class, frozen, fields; a field with a default is (name, default), and
# (name, default, "not compared") is a field that equality and the hash
# leave out, whose default may be REQUIRED: none
REQUIRED = dataclasses.MISSING
RECORDS = [
    (Var, True, ["name"]),
    (Functor, True, ["name", "args"]),
    (SourcePos, True, ["file", "line"]),
    (Text, False, ["content", "pos"]),
    (Element, False, ["name", "attrs", "children", "pos"]),
    (Projection, False, ["heads", "rows"]),
    (AttrPattern, True, ["name", "value"]),
    (PElem, True, ["name", "attrs", "children"]),
    (PEmptyElem, True, ["name", "attrs"]),
    (PVar, True, ["name"]),
    (PAnon, True, []),
    (PText, True, ["content"]),
    (Eq, True, ["env_var", "rhs"]),
    (Contains, True, ["var", "pattern"]),
    (Assign, True, ["env_var", "value"]),
    (EnvRule, True, ["assigns", "asserts"]),
    (TestRule, True, ["polarity", "goal", "consequence", "template",
                      "captured"]),
    (Rule, True, ["index", "pattern", "conditions", "body", "skipped",
                  "pos"]),
    (RuleSet, True, ["rules"]),
    (DelayedTest, True, ["rule_index", "test", "captured", "pos"]),
    (PassOneResult, True, ["facts", "tests", "diagnostics"]),
    (Message, True, ["pos", "rule_index", "html", "text", "solution_key",
                     ("values", REQUIRED, "not compared")]),
    (Token, True, ["kind", "lexeme", "pos"]),
    (UrlProbeResult, True, ["url", "kind", ("status", None),
                            ("detail", "")]),
    (RunConfig, False, ["rule_files", "inputs", "cache_dir",
                        ("format", "text"), ("offline", False),
                        ("url_timeout", 10.0),
                        ("max_probes", DEFAULT_MAX_PROBES),
                        ("normalize_names", False),
                        ("fail_on_warnings", False), ("output", None)]),
    (RunOutcome, False, ["report", "messages", "diagnostics", "exit_code",
                         "evaluated", "cached"]),
]


def make_twin(cls, frozen, fields):
    specs = []
    for field in fields:
        if isinstance(field, str):
            specs.append(field)
        else:
            specs.append((field[0], object, dataclasses.field(
                default=field[1], compare=len(field) == 2)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen)


TWINS = {cls: make_twin(cls, frozen, fields)
         for cls, frozen, fields in RECORDS}
FIELDS = {cls: [f if isinstance(f, str) else f[0] for f in fields]
          for cls, _, fields in RECORDS}


def hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


# field values: hashable and unhashable, NaN (equal only to itself, as a
# tuple element) and records themselves
_ATOMS = st.one_of(
    st.integers(0, 2), st.text("ab", max_size=2), st.none(),
    st.builds(float, st.just("nan")), st.builds(Var, st.sampled_from("ab")),
    st.builds(lambda v: {"X": v}, st.sampled_from("ab")))
_VALUES = st.recursive(
    _ATOMS, lambda inner: st.one_of(st.tuples(inner, inner),
                                    st.lists(inner, max_size=2)),
    max_leaves=4)
# a field that must hold what the class takes apart
_FIELD_VALUES = {
    (Element, "children"): st.lists(_VALUES, max_size=3).map(tuple),
    (RunConfig, "rule_files"): st.lists(st.text("ab", max_size=1),
                                        min_size=1, max_size=2),
    (RunConfig, "inputs"): st.lists(st.text("ab", max_size=1), min_size=1,
                                    max_size=2),
    (RunConfig, "format"): st.sampled_from(FORMATS),
    (RunConfig, "url_timeout"): st.floats(0, MAX_URL_TIMEOUT,
                                          exclude_min=True),
    (RunConfig, "max_probes"): st.integers(1, 64),
}


def field_values(cls, name):
    return _FIELD_VALUES.get((cls, name), _VALUES)


@st.composite
def value_pairs(draw, cls):
    """Two field value lists for cls, often equal or sharing objects."""
    first, second = [], []
    for name in FIELDS[cls]:
        value = draw(field_values(cls, name))
        how = draw(st.sampled_from(["same", "copy", "other"]))
        if how == "same":
            other = value
        elif how == "copy":
            other = _copy(value)
        else:
            other = draw(field_values(cls, name))
        first.append(value)
        second.append(other)
    return first, second


def _copy(value):
    # an equal value made of new objects wherever the type allows it
    if isinstance(value, list):
        return [_copy(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_copy(v) for v in value)
    if isinstance(value, Var):
        return Var(value.name)
    return value


@st.composite
def records(draw):
    cls = draw(st.sampled_from([cls for cls, _, _ in RECORDS]))
    return cls, draw(value_pairs(cls))


@given(records())
@settings(max_examples=400, deadline=None)
def test_records_behave_as_their_dataclass_twins(drawn):
    cls, (first, second) = drawn
    twin = TWINS[cls]
    r1, r2, t1, t2 = cls(*first), cls(*second), twin(*first), twin(*second)
    assert (r1 == r2) is (t1 == t2)
    assert (r1 != r2) is (t1 != t2)
    assert (r1 == r1) is (t1 == t1)
    assert r1 != t1 and not r1 == t1
    assert hashable(r1) is hashable(t1)
    if r1 == r2 and hashable(r1):
        assert hash(r1) == hash(r2)
    assert repr(r1) == repr(t1)
    assert cls(**dict(zip(FIELDS[cls], first))) == r1
    # the parameters are the fields, in order, whether the constructor is
    # generated from __slots__ or written out
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    for args, kwargs in ((first[:-1], {}), ([*first, None], {}),
                         (first, {"unknown": None})):
        assert raises_type_error(cls, args, kwargs) is raises_type_error(
            twin, args, kwargs), (args, kwargs)


def raises_type_error(cls, args, kwargs) -> bool:
    try:
        cls(*args, **kwargs)
    except TypeError:
        return True
    return False


def required_only(cls):
    """cls and its twin built from the fields without a default."""
    fields = next(fields for c, _, fields in RECORDS if c is cls)
    required = [["x"] for f in fields
                if isinstance(f, str) or f[1] is REQUIRED]
    return cls(*required), TWINS[cls](*required)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_records_lists_every_record_class():
    # the imports above load every module of the package that has records
    in_semlint = {cls for cls in subclasses(Record)
                  if cls.__module__.startswith("semlint.")}
    listed = [cls for cls, _, _ in RECORDS]
    assert len(listed) == len(set(listed))
    assert set(listed) == in_semlint


def test_hash_is_defined_exactly_for_frozen_classes():
    for cls, frozen, _ in RECORDS:
        assert (cls.__hash__ is None) is (TWINS[cls].__hash__ is None), cls
        assert (cls.__hash__ is not None) is frozen, cls
        assert cls.__slots__ == tuple(FIELDS[cls]), cls
        assert not hasattr(required_only(cls)[0], "__dict__"), cls
    for unhashable in (Text, Element, RunConfig, RunOutcome):
        assert unhashable.__hash__ is None


def test_defaults_match_the_twins():
    for cls, _, _ in RECORDS:
        record, twin = required_only(cls)
        assert repr(record) == repr(twin), cls


def test_records_of_different_classes_differ():
    values = ["a", "b", "c", "d", "e", "f"]
    by_arity = {}
    for cls, _, _ in RECORDS:
        if cls is not RunConfig:
            by_arity.setdefault(len(FIELDS[cls]), []).append(cls)
    for classes in by_arity.values():
        for a in classes:
            for b in classes:
                n = len(FIELDS[a])
                assert (a(*values[:n]) == b(*values[:n])) is (a is b), (a, b)
                assert ((TWINS[a](*values[:n]) == TWINS[b](*values[:n]))
                        is (a is b))
    assert "a" != Var("a")
    assert PVar("X") != Var("X") and PText("t") != "t"
    assert Text("a", SourcePos("f", 1)) != Element("a", (), (),
                                                   SourcePos("f", 1))


# -- node trees: Element.__eq__ walks with a stack, the twin recurses ---------

def twin_tree(node):
    pos = TWINS[SourcePos](node.pos.file, node.pos.line)
    if isinstance(node, Text):
        return TWINS[Text](node.content, pos)
    return TWINS[Element](node.name, node.attrs,
                          tuple(twin_tree(c) for c in node.children), pos)


def copy_tree(node):
    pos = SourcePos(node.pos.file, node.pos.line)
    if isinstance(node, Text):
        return Text(node.content, pos)
    return Element(node.name, node.attrs,
                   tuple(copy_tree(c) for c in node.children), pos)


@given(trees(), trees(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_element_equality_matches_the_twin(a, b, copy):
    if copy:
        b = copy_tree(a)
    assert (a == b) is (twin_tree(a) == twin_tree(b))
    assert (a != b) is (twin_tree(a) != twin_tree(b))
    assert repr(a) == repr(twin_tree(a))
