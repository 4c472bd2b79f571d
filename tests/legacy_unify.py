"""The wrapper-based unification that semlint used before bound values were
the terms and nodes themselves.

A bound value was wrapped: SVal (a string), TermVal (a functor or a variable
alias), NodeVal (a node) or NodeListVal (the rest of a child list).  Kept
as a test-only oracle, with its own copy of the raising bind that the
program no longer has: the differential tests in test_matcher.py check that
matcher.match_term, matching a rule term against a ground value, gives this
unify's result both ways round once the wrappers are mapped away (see
unwrap), and test_fact_index.py solves by a full scan through it.  Not
imported by the program.
"""

from __future__ import annotations

from typing import Optional, Union

from semlint.record import Record
from semlint.terms import Functor, Term, Var, is_ground
from semlint.xml_frontend import XmlNode


class SVal(Record, frozen=True):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value


class NodeVal(Record, frozen=True):
    __slots__ = ("node",)

    def __init__(self, node: XmlNode):
        self.node = node


class NodeListVal(Record, frozen=True):
    __slots__ = ("nodes",)

    def __init__(self, nodes: tuple[XmlNode, ...]):
        self.nodes = nodes


class TermVal(Record, frozen=True):
    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term


Value = Union[SVal, NodeVal, NodeListVal, TermVal]
Bindings = dict[str, Value]


def bind(b: Bindings, name: str, value: Value) -> Bindings:
    """b extended by name; ValueError if name already holds another value."""
    existing = b.get(name)
    if existing is not None and existing != value:
        raise ValueError(f"rebinding {name!r} to a different value")
    return {**b, name: value}


def unwrap(value: Value):
    """The bound value the current matcher holds for a wrapped one."""
    if isinstance(value, SVal):
        return value.value
    if isinstance(value, NodeVal):
        return value.node
    if isinstance(value, NodeListVal):
        return value.nodes
    return value.term


def _resolve(t: Union[Term, Value], b: Bindings) -> Union[Term, Value]:
    """Dereference variables (including var-to-var aliases) through b."""
    seen = set()
    while isinstance(t, Var):
        if t.name in seen:
            break
        seen.add(t.name)
        bound = b.get(t.name)
        if bound is None:
            return t
        if isinstance(bound, TermVal) and isinstance(bound.term, Var):
            t = bound.term
            continue
        return bound
    return t


def _as_value(t: Union[Term, Value]) -> Optional[Value]:
    if isinstance(t, (SVal, NodeVal, NodeListVal, TermVal)):
        return t
    if isinstance(t, str):
        return SVal(t)
    if isinstance(t, Functor):
        return TermVal(t) if is_ground(t) else None
    return TermVal(t)  # unbound Var: alias


def unify(t1: Union[Term, Value], t2: Union[Term, Value],
          b: Bindings) -> Optional[Bindings]:
    a = _resolve(t1, b)
    c = _resolve(t2, b)
    if isinstance(a, Var) and isinstance(c, Var) and a.name == c.name:
        return b
    if isinstance(a, Var):
        value = _as_value(c)
        return None if value is None else bind(b, a.name, value)
    if isinstance(c, Var):
        value = _as_value(a)
        return None if value is None else bind(b, c.name, value)

    fa, fc = _as_functor(a), _as_functor(c)
    if fa is not None or fc is not None:
        if fa is None or fc is None:
            return None
        if fa.name != fc.name or len(fa.args) != len(fc.args):
            return None
        for x, y in zip(fa.args, fc.args):
            b2 = unify(x, y, b)
            if b2 is None:
                return None
            b = b2
        return b

    sa, sc = _as_string(a), _as_string(c)
    if sa is not None and sc is not None:
        return b if sa == sc else None
    return b if a == c else None


def _as_functor(t) -> Optional[Functor]:
    if isinstance(t, Functor):
        return t
    if isinstance(t, TermVal) and isinstance(t.term, Functor):
        return t.term
    return None


def _as_string(t) -> Optional[str]:
    if isinstance(t, str):
        return t
    if isinstance(t, SVal):
        return t.value
    return None
