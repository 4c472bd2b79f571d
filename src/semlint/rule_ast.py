"""Typed AST for the rule language.

A rule file is a sequence of rules; each rule has an XML-shaped head
pattern, optional conditions on the local environment, and one body: the
environment actions of an EnvRule (assignments and the facts to assert)
or the delayed test of a TestRule.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import groupby
from typing import Iterator, Union

from .record import ARG, ATTR, CONTENT, Record, escape, quote_string
from .terms import Functor, Term, Var

ANON = "_"


class AttrPattern(Record, frozen=True):
    __slots__ = (
        "name",
        # str (exact match), Var (bind/check) or None for $_ (presence only)
        "value")


class PElem(Record, frozen=True):
    __slots__ = ("name", "attrs", "children")


class PEmptyElem(Record, frozen=True):
    __slots__ = ("name", "attrs")


class PVar(Record, frozen=True):
    __slots__ = ("name",)


class PAnon(Record, frozen=True):
    __slots__ = ()


class PText(Record, frozen=True):
    __slots__ = ("content",)


Pattern = Union[PElem, PEmptyElem, PVar, PAnon, PText]


class Eq(Record, frozen=True):
    __slots__ = ("env_var", "rhs")


class Contains(Record, frozen=True):
    __slots__ = ("var", "pattern")


Condition = Union[Eq, Contains]


class Assign(Record, frozen=True):
    __slots__ = ("env_var", "value")


class Polarity(Enum):
    IF_ABSENT = "ifnot"    # ? pred / conseq  -- warn when pred has no solution
    IF_PRESENT = "if"      # ? pred -> conseq -- warn once per solution


class EnvRule(Record, frozen=True):
    __slots__ = (
        "assigns",  # Assign records, in the order written
        "asserts")  # the Functor terms to assert as facts, in that order


class TestRule(Record, frozen=True):
    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = (
        "polarity", "goal", "consequence",
        # compile_consequence(consequence), made once when the rule is loaded
        "template",
        # the sorted names of the goal and message that pass 1 binds, but
        # $SourceFile and $SourceLine: the cells of a cached test's row
        "captured")


class Rule(Record, frozen=True):
    __slots__ = ("index", "pattern", "conditions", "body", "skipped", "pos")


class RuleSet(Record, frozen=True):
    __slots__ = ("rules",)


def pattern_vars(p: Pattern) -> Iterator[str]:
    """Names of all binding variables in a pattern ($_ excluded)."""
    if isinstance(p, PVar):
        yield p.name
    elif isinstance(p, (PElem, PEmptyElem)):
        for a in p.attrs:
            if isinstance(a.value, Var):
                yield a.value.name
        if isinstance(p, PElem):
            for c in p.children:
                yield from pattern_vars(c)


def compile_consequence(c: Union[Pattern, Term]) -> tuple:
    """A test's message template (names, html, text).  A term renders as
    its term text, escaped in html; a pattern with its elements in html
    only, children joined by spaces, and its whitespace normalized.  A form
    is a tuple of merged literals and (index into names, kind) slots; names
    are in order of first use."""
    def pieces(p) -> Iterator[tuple]:
        """(html, text) pairs, a slot as (name, kind)."""
        if isinstance(p, (Var, PVar, PAnon)):  # <$_>: a slot nothing binds
            yield ((getattr(p, "name", ANON),
                    ARG if isinstance(p, Var) else CONTENT),) * 2
        elif isinstance(p, str):
            yield escape(quote_string(p), False), quote_string(p)
        elif isinstance(p, Functor):
            yield escape(p.name, False) + "(", p.name + "("
            for i, arg in enumerate(p.args):
                yield ("," if i else "",) * 2
                yield from pieces(arg)
            yield ")", ")"
        elif isinstance(p, PText):
            yield p.content, p.content
        else:
            yield f"<{p.name}", ""
            for a in p.attrs:
                yield f' {a.name}="', ""
                yield (escape(a.value) if isinstance(a.value, str) else (
                    getattr(a.value, "name", ANON), ATTR)), ""
                yield '"', ""
            yield "/>" if isinstance(p, PEmptyElem) else ">", ""
            for child in getattr(p, "children", ()):
                yield " ", " "
                yield from pieces(child)
            yield (f" </{p.name}>" if isinstance(p, PElem) else ""), ""

    pairs = list(pieces(c))
    names = list(dict.fromkeys(h[0] for h, _ in pairs if type(h) is tuple))
    forms, pattern = [], not isinstance(c, (Var, str, Functor))
    for form_pieces in zip(*pairs):
        form: list = []
        for literal, run in groupby(form_pieces, lambda p: type(p) is str):
            form += ["".join(run)] if literal else [
                (names.index(name), kind) for name, kind in run]
        # a pattern's literals, normalized as far as they can be before a
        # fill: all of a form without slots, which fill leaves as it is
        if pattern:
            form = [re.sub(r"\s+", " ", s) if type(s) is str else s
                    for s in form]
            if type(form[0]) is str:
                form[0] = form[0].lstrip()
            if type(form[-1]) is str:
                form[-1] = form[-1].rstrip()
        forms.append(tuple(s for s in form if s != ""))
    return tuple(names), *forms
