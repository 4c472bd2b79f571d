"""Pattern matching against XML nodes and term unification.

All operations are pure: bindings are extended, never mutated, and a failed
match is the ordinary ``None`` outcome rather than an error.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .record import Record
from .rule_ast import AttrPattern, PAnon, PEmptyElem, PText, PVar, Pattern
from .terms import Functor, Str, Term, Var, is_ground, term_to_text
from .xml_frontend import Element, Text, XmlNode, walk


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


class TypeMismatch(Exception):
    def __init__(self, kind: str):
        super().__init__(f"contains requires a node value, got {kind}")
        self.kind = kind


class Bindings:
    """Immutable variable-name -> Value map; bind() returns an extension."""

    __slots__ = ("_map",)

    def __init__(self, entries: dict[str, Value] | None = None):
        self._map: dict[str, Value] = dict(entries) if entries else {}

    def bind(self, name: str, value: Value) -> "Bindings":
        existing = self._map.get(name)
        if existing is not None and existing != value:
            raise ValueError(f"rebinding {name!r} to a different value")
        new = Bindings(self._map)
        new._map[name] = value
        return new

    def get(self, name: str) -> Optional[Value]:
        return self._map.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def __getitem__(self, name: str) -> Value:
        return self._map[name]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Bindings) and self._map == other._map

    def items(self):
        return self._map.items()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._map.items()))
        return f"Bindings({inner})"


def normalize_ws(s: str) -> str:
    return " ".join(s.split())


def string_projection(value: Value) -> str:
    """Flattened, whitespace-normalized textual content of a value."""
    if isinstance(value, SVal):
        return value.value
    if isinstance(value, NodeVal):
        return normalize_ws(" ".join(_texts(value.node)))
    if isinstance(value, NodeListVal):
        return normalize_ws(" ".join(t for n in value.nodes
                                     for t in _texts(n)))
    return term_to_text(value.term)


def _texts(node: XmlNode) -> Iterator[str]:
    return (n.content for n in walk(node) if isinstance(n, Text))


def match_node(p: Pattern, n: XmlNode, b: Bindings) -> Optional[Bindings]:
    if isinstance(p, PAnon):
        return b
    if isinstance(p, PVar):
        return _bind_value(p.name, NodeVal(n), b)
    if isinstance(p, PText):
        if isinstance(n, Text) and n.content.strip() == p.content.strip():
            return b
        return None
    if not isinstance(n, Element):
        return None
    if p.name != n.name:
        return None
    b2 = _match_attrs(p.attrs, n, b)
    if b2 is None:
        return None
    if isinstance(p, PEmptyElem):
        return b2 if not n.children else None
    return match_children(list(p.children), list(n.children), b2)


def _match_attrs(attrs: tuple[AttrPattern, ...], n: Element,
                 b: Bindings) -> Optional[Bindings]:
    present = dict(n.attrs)
    for ap in attrs:
        if ap.name not in present:
            return None
        if ap.value is None:
            continue
        actual = present[ap.name]
        if isinstance(ap.value, Str):
            if ap.value.value != actual:
                return None
        else:
            b2 = _bind_value(ap.value.name, SVal(actual), b)
            if b2 is None:
                return None
            b = b2
    return b


def match_children(ps: list[Pattern], ns: list[XmlNode],
                   b: Bindings) -> Optional[Bindings]:
    """Positional child matching; a final $X / $_ takes the rest as a list."""
    if ps and isinstance(ps[-1], (PVar, PAnon)):
        head, tail_pat = ps[:-1], ps[-1]
        if len(ns) < len(head):
            return None
        for p, n in zip(head, ns):
            b2 = match_node(p, n, b)
            if b2 is None:
                return None
            b = b2
        rest = NodeListVal(tuple(ns[len(head):]))
        if isinstance(tail_pat, PAnon):
            return b
        return _bind_value(tail_pat.name, rest, b)
    if len(ps) != len(ns):
        return None
    for p, n in zip(ps, ns):
        b2 = match_node(p, n, b)
        if b2 is None:
            return None
        b = b2
    return b


def _bind_value(name: str, value: Value, b: Bindings) -> Optional[Bindings]:
    existing = b.get(name)
    if existing is not None:
        return b if existing == value else None
    return b.bind(name, value)


def deep_contains(root: Value, p: Pattern, b: Bindings) -> list[Bindings]:
    """All matches of p anywhere in root's subtree(s), document order."""
    if isinstance(root, NodeVal):
        nodes: Iterator[XmlNode] = walk(root.node)
    elif isinstance(root, NodeListVal):
        nodes = (d for n in root.nodes for d in walk(n))
    else:
        raise TypeMismatch("a string" if isinstance(root, SVal) else "a term")
    out = []
    for node in nodes:
        b2 = match_node(p, node, b)
        if b2 is not None:
            out.append(b2)
    return out


# -- unification -------------------------------------------------------------

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
    if isinstance(t, Str):
        return SVal(t.value)
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
        return None if value is None else b.bind(a.name, value)
    if isinstance(c, Var):
        value = _as_value(a)
        return None if value is None else b.bind(c.name, value)

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
    if isinstance(t, Str):
        return t.value
    if isinstance(t, SVal):
        return t.value
    return None
