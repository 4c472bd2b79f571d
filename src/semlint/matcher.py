"""Pattern matching against XML nodes, and rule terms against ground values.

All operations are pure: bindings are plain dicts that are extended into
new dicts, never mutated, and a failed match is the ordinary ``None``
outcome rather than an error.  Matching is one-way: validate enforces
Datalog's range restriction, so every fact and every bound value is ground
and only the rule's side of a match holds variables.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .rule_ast import AttrPattern, PAnon, PEmptyElem, PText, PVar, Pattern
from .terms import Functor, Term, Var, term_to_text
from .xml_frontend import Element, Text, XmlNode, walk


# A bound value is the ground term or node it denotes: a str, a ground
# Functor, an Element or Text node, or a tuple of nodes (the rest of a child
# list).
Value = Union[str, Functor, XmlNode, tuple[XmlNode, ...]]


class TypeMismatch(Exception):
    def __init__(self, kind: str):
        super().__init__(f"contains requires a node value, got {kind}")
        self.kind = kind


# variable name -> Value; never changed once built, a match extends a copy
Bindings = dict[str, Value]


def normalize_ws(s: str) -> str:
    return " ".join(s.split())


def string_projection(value: Value) -> str:
    """Flattened, whitespace-normalized textual content of a value."""
    if isinstance(value, str):
        return value
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
        if isinstance(ap.value, str):
            if ap.value != actual:
                return None
        else:
            b2 = _bind_value(ap.value.name, actual, b)
            if b2 is None:
                return None
            b = b2
    return b


def match_children(ps: list[Pattern], ns: list[XmlNode],
                   b: Bindings) -> Optional[Bindings]:
    """Positional child matching; a final $X / $_ takes the rest as a list."""
    tail = ps[-1] if ps and isinstance(ps[-1], (PVar, PAnon)) else None
    head = ps if tail is None else ps[:-1]
    if len(ns) < len(head) or (tail is None and len(ns) > len(head)):
        return None
    for p, n in zip(head, ns):
        b = match_node(p, n, b)
        if b is None:
            return None
    if isinstance(tail, PVar):
        return _bind_value(tail.name, tuple(ns[len(head):]), b)
    return b


def _bind_value(name: str, value: Value, b: Bindings) -> Optional[Bindings]:
    existing = b.get(name)
    if existing is not None:
        return b if _same(existing, value) else None
    return {**b, name: value}


def _same(a: Value, c: Value) -> bool:
    """a == c, except that nodes compare by content and not by line.

    Bound subtrees compare here, on an explicit stack, so any depth
    compares.
    """
    stack = [(a, c)]
    while stack:
        x, y = stack.pop()
        if x.__class__ is Element and y.__class__ is Element:
            if x.name != y.name or x.attrs != y.attrs:
                return False
            x, y = x.children, y.children
        if x.__class__ is tuple and y.__class__ is tuple:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x.__class__ is Text and y.__class__ is Text:
            if x.content != y.content:
                return False
        elif x != y:
            return False
    return True


def deep_contains(root: Value, p: Pattern, b: Bindings) -> list[Bindings]:
    """All matches of p anywhere in root's subtree(s), document order."""
    if isinstance(root, (Element, Text)):
        nodes: Iterator[XmlNode] = walk(root)
    elif isinstance(root, tuple):
        nodes = (d for n in root for d in walk(n))
    else:
        raise TypeMismatch("a string" if isinstance(root, str) else "a term")
    out = []
    for node in nodes:
        b2 = match_node(p, node, b)
        if b2 is not None:
            out.append(b2)
    return out


def match_term(t: Term, value: Value, b: Bindings) -> Optional[Bindings]:
    """b extended so that the rule term t equals the ground value, or None."""
    if isinstance(t, Var):
        return _bind_value(t.name, value, b)
    if isinstance(t, Functor):
        if (not isinstance(value, Functor) or t.name != value.name
                or len(t.args) != len(value.args)):
            return None
        for x, y in zip(t.args, value.args):
            b = match_term(x, y, b)
            if b is None:
                return None
        return b
    return b if t == value else None
