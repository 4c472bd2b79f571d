"""The pass-1 entry codec that semlint used before each entry held a string
table.

An entry was one JSON list [facts, tests, diagnostics].  A term was a string
or a list [name, *args] (Functor), so every value was written out again at
each use.  A delayed test was [rule_index, line, row], with row holding a
term, or null where unbound, for each name of the rule's TestRule.captured
in order, but $SourceFile and $SourceLine.  Kept unchanged as a test-only
oracle: the differential test in test_engine.py checks that the current
codec decodes its own bytes to what this one decodes from its bytes.  Not
imported by the program.
"""

from __future__ import annotations

import json

from semlint.engine import DelayedTest, PassOneResult
from semlint.rule_ast import RuleSet, TestRule
from semlint.terms import Functor, Term
from semlint.xml_frontend import SourcePos

_POSITION_VARS = ("SourceFile", "SourceLine")


def _captured(rule) -> tuple[str, ...]:
    """TestRule.captured as it was then: the position's names included."""
    return (*rule.body.captured, *_POSITION_VARS)


def serialize_pass1(result: PassOneResult, rules: RuleSet) -> str:
    tests = []
    for dt in result.tests:
        tests.append([dt.rule_index, dt.pos.line, [
            _term_to_json(dt.captured[name]) if name in dt.captured else None
            for name in _captured(rules.rules[dt.rule_index])
            if name not in _POSITION_VARS]])
    return json.dumps([[_term_to_json(fact) for fact in result.facts], tests,
                       list(result.diagnostics)], separators=(",", ":"))


def parse_pass1(text: str, source_file: str, rules: RuleSet) -> PassOneResult:
    """ValueError unless text is a complete entry for this ruleset."""
    # unpacking raises ValueError unless the list has three items
    facts_doc, tests_doc, diags_doc = _typed(json.loads(text), list)
    facts = []
    for item in _typed(facts_doc, list):
        term = _term_from_json(item)
        if not isinstance(term, Functor):
            raise ValueError(f"bad cached fact {item!r}")
        facts.append(term)
    tests = tuple(_test_from_json(item, source_file, rules)
                  for item in _typed(tests_doc, list))
    diagnostics = tuple(_typed(d, str) for d in _typed(diags_doc, list))
    return PassOneResult(tuple(facts), tests, diagnostics)


def _typed(value, kind: type):
    # exact type check: bool is an int subclass and must not pass as one
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


def _term_to_json(t: Term):
    if isinstance(t, str):
        return t
    if isinstance(t, Functor):
        return [t.name, *(_term_to_json(a) for a in t.args)]
    raise ValueError(f"non-ground term not serializable: {t!r}")


def _term_from_json(item) -> Term:
    if type(item) is str:
        return item
    if type(item) is list and item and type(item[0]) is str:
        return Functor(item[0], tuple(_term_from_json(a) for a in item[1:]))
    raise ValueError(f"bad cached term {item!r}")


def _test_from_json(item, source_file: str, rules: RuleSet) -> DelayedTest:
    if type(item) is not list or len(item) != 3:
        raise ValueError(f"bad cached test {item!r}")
    index, line, row = (_typed(item[0], int), _typed(item[1], int),
                        _typed(item[2], list))
    rule = rules.rules[index] if 0 <= index < len(rules.rules) else None
    if rule is None or not isinstance(rule.body, TestRule):
        raise ValueError(f"cached test names rule {index}, not a test rule")
    position = {"SourceFile": source_file, "SourceLine": str(line)}
    names = [name for name in _captured(rule) if name not in position]
    if len(row) != len(names):
        raise ValueError(f"cached test row {row!r} does not fit rule {index}")
    captured = {name: _term_from_json(value)
                for name, value in zip(names, row) if value is not None}
    captured.update((name, position[name]) for name in _captured(rule)
                    if name in position)
    return DelayedTest(index, rule.body, captured,
                       SourcePos(source_file, line))
