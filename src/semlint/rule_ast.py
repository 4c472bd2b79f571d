"""Typed AST for the rule language.

A rule file is a sequence of rules; each rule has an XML-shaped head
pattern, optional conditions on the local environment, and either
environment actions (assignments / fact assertions) or a delayed test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .terms import Functor, Str, Term, Var, term_vars
from .xml_frontend import SourcePos

ANON = "_"


@dataclass(frozen=True)
class AttrPattern:
    name: str
    # value is Str (exact match), Var (bind/check) or None for $_ (presence only)
    value: Union[Str, Var, None]


@dataclass(frozen=True)
class PElem:
    name: str
    attrs: tuple[AttrPattern, ...]
    children: tuple["Pattern", ...]


@dataclass(frozen=True)
class PEmptyElem:
    name: str
    attrs: tuple[AttrPattern, ...]


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PAnon:
    pass


@dataclass(frozen=True)
class PText:
    content: str


Pattern = Union[PElem, PEmptyElem, PVar, PAnon, PText]


@dataclass(frozen=True)
class Eq:
    env_var: str
    rhs: Term


@dataclass(frozen=True)
class Contains:
    var: str
    pattern: Pattern


Condition = Union[Eq, Contains]


@dataclass(frozen=True)
class Assign:
    env_var: str
    value: Term


@dataclass(frozen=True)
class Assert:
    fact: Functor


Action = Union[Assign, Assert]


class Polarity(Enum):
    IF_ABSENT = "ifnot"    # ? pred / conseq  -- warn when pred has no solution
    IF_PRESENT = "if"      # ? pred -> conseq -- warn once per solution


@dataclass(frozen=True)
class Test:
    __test__ = False

    polarity: Polarity
    goal: Functor
    consequence: Union[Pattern, Term]


@dataclass(frozen=True)
class EnvRule:
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class TestRule:
    __test__ = False  # keep pytest from collecting this as a test class

    test: Test


@dataclass(frozen=True)
class Rule:
    index: int
    pattern: Pattern
    conditions: tuple[Condition, ...]
    body: Union[EnvRule, TestRule]
    skipped: bool
    pos: SourcePos


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    source_hash: str


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


def consequence_vars(c: Union[Pattern, Term]) -> Iterator[str]:
    if isinstance(c, (PElem, PEmptyElem, PVar, PAnon, PText)):
        yield from pattern_vars(c)
    else:
        yield from term_vars(c)

