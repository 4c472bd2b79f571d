"""Functor terms: predicate goals, assertions and their canonical text form.

The canonical text form is how terms are rendered in messages and
diagnostics.  It contains no insignificant whitespace.
"""

from __future__ import annotations

from typing import Iterator, Union

from .record import Record, quote_string


class Var(Record, frozen=True):
    __slots__ = ("name",)


class Functor(Record, frozen=True):
    __slots__ = ("name", "args")


# a string term is a Python str, as a string is an atom in Prolog
Term = Union[Var, str, Functor]


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, Functor):
        return all(is_ground(a) for a in t.args)
    return True


def term_vars(t: Term) -> Iterator[str]:
    if isinstance(t, Var):
        yield t.name
    elif isinstance(t, Functor):
        for a in t.args:
            yield from term_vars(a)


def term_to_text(t: Term) -> str:
    if isinstance(t, Var):
        return "$" + t.name
    if isinstance(t, str):
        return quote_string(t)
    return t.name + "(" + ",".join(term_to_text(a) for a in t.args) + ")"

