"""Typed AST for the rule language.

A rule file is a sequence of rules; each rule has an XML-shaped head
pattern, optional conditions on the local environment, and either
environment actions (assignments / fact assertions) or a delayed test.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Union

from .record import Record, SourcePos
from .terms import Functor, Term, Var, term_vars

ANON = "_"


class AttrPattern(Record, frozen=True):
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Union[str, Var, None]):
        self.name = name
        # str (exact match), Var (bind/check) or None for $_ (presence only)
        self.value = value


class PElem(Record, frozen=True):
    __slots__ = ("name", "attrs", "children")

    def __init__(self, name: str, attrs: tuple[AttrPattern, ...],
                 children: tuple["Pattern", ...]):
        self.name = name
        self.attrs = attrs
        self.children = children


class PEmptyElem(Record, frozen=True):
    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: tuple[AttrPattern, ...]):
        self.name = name
        self.attrs = attrs


class PVar(Record, frozen=True):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class PAnon(Record, frozen=True):
    __slots__ = ()


class PText(Record, frozen=True):
    __slots__ = ("content",)

    def __init__(self, content: str):
        self.content = content


Pattern = Union[PElem, PEmptyElem, PVar, PAnon, PText]


class Eq(Record, frozen=True):
    __slots__ = ("env_var", "rhs")

    def __init__(self, env_var: str, rhs: Term):
        self.env_var = env_var
        self.rhs = rhs


class Contains(Record, frozen=True):
    __slots__ = ("var", "pattern")

    def __init__(self, var: str, pattern: Pattern):
        self.var = var
        self.pattern = pattern


Condition = Union[Eq, Contains]


class Assign(Record, frozen=True):
    __slots__ = ("env_var", "value")

    def __init__(self, env_var: str, value: Term):
        self.env_var = env_var
        self.value = value


class Assert(Record, frozen=True):
    __slots__ = ("fact",)

    def __init__(self, fact: Functor):
        self.fact = fact


Action = Union[Assign, Assert]


class Polarity(Enum):
    IF_ABSENT = "ifnot"    # ? pred / conseq  -- warn when pred has no solution
    IF_PRESENT = "if"      # ? pred -> conseq -- warn once per solution


class Test(Record, frozen=True):
    __test__ = False
    __slots__ = ("polarity", "goal", "consequence")

    def __init__(self, polarity: Polarity, goal: Functor,
                 consequence: Union[Pattern, Term]):
        self.polarity = polarity
        self.goal = goal
        self.consequence = consequence


class EnvRule(Record, frozen=True):
    __slots__ = ("actions",)

    def __init__(self, actions: tuple[Action, ...]):
        self.actions = actions


class TestRule(Record, frozen=True):
    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("test", "captured")

    def __init__(self, test: Test, captured: tuple[str, ...]):
        self.test = test
        # the sorted names that a delayed test of this rule captures
        self.captured = captured


class Rule(Record, frozen=True):
    __slots__ = ("index", "pattern", "conditions", "body", "skipped", "pos")

    def __init__(self, index: int, pattern: Pattern,
                 conditions: tuple[Condition, ...],
                 body: Union[EnvRule, TestRule], skipped: bool,
                 pos: SourcePos):
        self.index = index
        self.pattern = pattern
        self.conditions = conditions
        self.body = body
        self.skipped = skipped
        self.pos = pos


class RuleSet(Record, frozen=True):
    __slots__ = ("rules",)

    def __init__(self, rules: tuple[Rule, ...]):
        self.rules = rules


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
