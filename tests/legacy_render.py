"""The recursive message renderer that semlint used before it compiled each
test's consequence into a template once, at rule load.

It walked the consequence for every rendered solution: a term was
substituted and written as its term text, escaped in the HTML form only; a
pattern was rendered element by element, with children joined by spaces,
and both forms whitespace-normalized as a whole.  Kept unchanged as a
test-only oracle: the differential test in test_reporting.py checks that
reporting.render_consequence gives the same (html, text) on random
consequences and bindings.  Not imported by the program.
"""

from __future__ import annotations

from typing import Union

from semlint.matcher import Bindings, normalize_ws, string_projection
from semlint.record import escape
from semlint.rule_ast import PAnon, PEmptyElem, PText, PVar, Pattern
from semlint.terms import Functor, Term, Var, term_to_text


class UnboundInConsequence(Exception):
    """A variable of the consequence that the bindings leave unbound."""

    def __init__(self, var: str):
        super().__init__(f"unbound variable ${var} in message template")
        self.var = var


def render_consequence(c: Union[Pattern, Term],
                       b: Bindings) -> tuple[str, str]:
    """Render a test consequence into (html, text) forms."""
    if isinstance(c, (Var, str, Functor)):
        text = term_to_text(_subst_term(c, b))
        return escape(text, quote=False), text
    html, text = _render_pattern(c, b)
    return normalize_ws(html), normalize_ws(text)


def _subst_term(t: Term, b: Bindings) -> Term:
    if isinstance(t, Var):
        value = b.get(t.name)
        if value is None:
            raise UnboundInConsequence(t.name)
        return string_projection(value)
    if isinstance(t, Functor):
        return Functor(t.name, tuple(_subst_term(a, b) for a in t.args))
    return t


def _render_pattern(p: Pattern, b: Bindings) -> tuple[str, str]:
    if isinstance(p, PText):
        return p.content, p.content
    if isinstance(p, PVar):
        value = b.get(p.name)
        if value is None:
            raise UnboundInConsequence(p.name)
        projection = string_projection(value)
        return escape(projection, quote=False), projection
    if isinstance(p, PAnon):
        raise UnboundInConsequence("_")
    attrs = "".join(f' {a.name}="{_attr_value(a, b)}"' for a in p.attrs)
    if isinstance(p, PEmptyElem):
        return f"<{p.name}{attrs}/>", ""
    parts = [_render_pattern(c, b) for c in p.children]
    inner_html = " ".join(h for h, _ in parts)
    inner_text = " ".join(t for _, t in parts)
    return f"<{p.name}{attrs}> {inner_html} </{p.name}>", inner_text


def _attr_value(a, b: Bindings) -> str:
    if a.value is None:
        raise UnboundInConsequence("_")
    if isinstance(a.value, str):
        return escape(a.value, quote=True)
    value = b.get(a.value.name)
    if value is None:
        raise UnboundInConsequence(a.value.name)
    return escape(string_projection(value), quote=True)
