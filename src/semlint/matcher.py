"""Pattern matching against XML nodes and term unification.

All operations are pure: bindings are extended, never mutated, and a failed
match is the ordinary ``None`` outcome rather than an error.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .rule_ast import AttrPattern, PAnon, PEmptyElem, PText, PVar, Pattern
from .terms import Functor, Str, Var, is_ground, term_to_text
from .xml_frontend import Element, Text, XmlNode, walk


# A bound value is the term or node it denotes: a Str, a ground Functor, a
# Var (an alias of another variable), an Element or Text node, or a tuple of
# nodes (the rest of a child list).
Value = Union[Str, Functor, Var, XmlNode, tuple[XmlNode, ...]]


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
    if isinstance(value, Str):
        return value.value
    if isinstance(value, (Element, Text)):
        return normalize_ws(" ".join(_texts(value)))
    if isinstance(value, tuple):
        return normalize_ws(" ".join(t for n in value for t in _texts(n)))
    return term_to_text(value)


def _texts(node: XmlNode) -> Iterator[str]:
    return (n.content for n in walk(node) if isinstance(n, Text))


def match_node(p: Pattern, n: XmlNode, b: Bindings) -> Optional[Bindings]:
    if isinstance(p, PAnon):
        return b
    if isinstance(p, PVar):
        return _bind_value(p.name, n, b)
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
            b2 = _bind_value(ap.value.name, Str(actual), b)
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
        if isinstance(tail_pat, PAnon):
            return b
        return _bind_value(tail_pat.name, tuple(ns[len(head):]), b)
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
    if isinstance(root, (Element, Text)):
        nodes: Iterator[XmlNode] = walk(root)
    elif isinstance(root, tuple):
        nodes = (d for n in root for d in walk(n))
    else:
        raise TypeMismatch("a string" if isinstance(root, Str) else "a term")
    out = []
    for node in nodes:
        b2 = match_node(p, node, b)
        if b2 is not None:
            out.append(b2)
    return out


# -- unification -------------------------------------------------------------

def _resolve(t: Value, b: Bindings) -> Value:
    """Dereference variables (including var-to-var aliases) through b."""
    seen = set()
    while isinstance(t, Var) and t.name not in seen:
        seen.add(t.name)
        bound = b.get(t.name)
        if bound is None:
            return t
        t = bound
    return t


def unify(t1: Value, t2: Value, b: Bindings) -> Optional[Bindings]:
    a = _resolve(t1, b)
    c = _resolve(t2, b)
    if isinstance(a, Var):
        if isinstance(c, Var) and a.name == c.name:
            return b
        a, c = c, a
    if isinstance(c, Var):
        # a variable holds anything but a functor with variables in it
        if isinstance(a, Functor) and not is_ground(a):
            return None
        return b.bind(c.name, a)
    if isinstance(a, Functor) and isinstance(c, Functor):
        if a.name != c.name or len(a.args) != len(c.args):
            return None
        for x, y in zip(a.args, c.args):
            b = unify(x, y, b)
            if b is None:
                return None
        return b
    return b if a == c else None
