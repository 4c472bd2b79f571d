"""Rule execution: per-file traversal (pass 1), fact merging and delayed
test resolution against the global fact store (pass 2).

Pass 1 is a depth-first pre-order walk.  At every node all applicable rules
are matched against the same inherited environment snapshot; assignments
only become visible to the node's children.  Rules are indexed by the
element name of their head (like Rete alpha memories), so each node tries
only the rules whose head can match it.  Facts and tests produced for a
file can be cached on disk as a JSON document and replayed bit-exactly; a
cached test refers to its rule by index instead of copying the rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import reporting
from .matcher import (Bindings, NodeListVal, NodeVal, SVal, TermVal,
                      TypeMismatch, Value, deep_contains, match_node,
                      string_projection, unify)
from .rule_ast import (Assign, EnvRule, Eq, PAnon, PElem, PEmptyElem,
                       Pattern, Polarity, PText, PVar, Rule, RuleSet,
                       TestRule, consequence_vars)
from .terms import Functor, Str, Term, term_to_text, term_vars
from .xml_frontend import Element, SourcePos, XmlNode


class EngineError(Exception):
    pass


class NonGroundAssertion(EngineError):
    def __init__(self, pos: SourcePos, term: Term, var: str):
        super().__init__(
            f"{pos.file}:{pos.line}: assertion {term_to_text(term)} leaves "
            f"${var} unbound (ruleset bug)")
        self.pos = pos
        self.term = term


class UnknownPredicate(EngineError):
    def __init__(self, name: str, arity: int):
        super().__init__(f"unknown predicate {name}/{arity}: no builtin and "
                         f"never asserted (possible misspelling)")
        self.name = name
        self.arity = arity


class BuiltinError(EngineError):
    pass


# builtin evaluator: (goal args, bindings, store) -> solutions
BuiltinFn = Callable[[tuple[Term, ...], Bindings, "FactStore"],
                     list[Bindings]]
BuiltinRegistry = dict[tuple[str, int], BuiltinFn]


class LocalEnv:
    """Immutable name -> Value map; child scopes shadow their parent."""

    __slots__ = ("_map",)

    def __init__(self, entries: dict[str, Value] | None = None):
        self._map = dict(entries) if entries else {}

    def get(self, name: str) -> Optional[Value]:
        return self._map.get(name)

    def assign(self, name: str, value: Value) -> "LocalEnv":
        child = LocalEnv(self._map)
        child._map[name] = value
        return child


@dataclass(frozen=True)
class Fact:
    term: Functor
    # diagnostic only, not part of fact identity, and cold-only: a fact
    # read back from the pass-1 cache gets line 1 of its file
    origin: SourcePos


@dataclass(frozen=True)
class DelayedTest:
    rule_index: int
    polarity: Polarity
    goal: Functor
    captured: Bindings
    consequence: Union[Pattern, Term]
    pos: SourcePos


@dataclass(frozen=True)
class PassOneResult:
    source_file: str
    facts: tuple[Fact, ...]
    tests: tuple[DelayedTest, ...]
    diagnostics: tuple[str, ...]
    input_digest: str
    rules_digest: str


def evaluate_file(doc: XmlNode, rules: RuleSet, file: str,
                  input_digest: str = "") -> PassOneResult:
    facts: list[Fact] = []
    tests: list[DelayedTest] = []
    diagnostics: list[str] = []

    any_node, by_name, text_rules = _rules_by_head(rules)
    source_file = SVal(file)

    def apply(node: XmlNode, candidates: list[Rule],
              env: LocalEnv) -> LocalEnv:
        """Fire the candidates that match node; the env its children see."""
        seed = Bindings({"SourceFile": source_file,
                         "SourceLine": SVal(str(node.pos.line))})
        applicable: list[tuple[Rule, Bindings]] = []
        for rule in candidates:
            # looked up in this module on each call, where it can be wrapped
            b = match_node(rule.pattern, node, seed)
            if b is None:
                continue
            for cond in rule.conditions:
                try:
                    b = _eval_condition(cond, b, env)
                except TypeMismatch as exc:
                    diagnostics.append(
                        f"{file}:{node.pos.line}: ${cond.var} holds "
                        f"{exc.kind}, not a node: the contains condition of "
                        f"rule {rule.index} fails")
                    b = None
                if b is None:
                    break
            if b is not None:
                applicable.append((rule, b))

        child_env = env
        assigned_by: dict[str, int] = {}
        for rule, b in applicable:
            if isinstance(rule.body, EnvRule):
                for act in rule.body.actions:
                    if isinstance(act, Assign):
                        if act.env_var in assigned_by:
                            diagnostics.append(
                                f"{file}:{node.pos.line}: conflicting "
                                f"assignments to {act.env_var!r} (rule "
                                f"{rule.index} overrides rule "
                                f"{assigned_by[act.env_var]})")
                        assigned_by[act.env_var] = rule.index
                        child_env = child_env.assign(
                            act.env_var, _ground_value(act.value, b,
                                                       node.pos))
                    else:
                        term = _ground_term(act.fact, b, node.pos)
                        assert isinstance(term, Functor)
                        facts.append(Fact(term, node.pos))
            else:
                tests.append(_capture_test(rule, b, node.pos))
        return child_env

    # pre-order with an explicit stack, so depth is bounded by memory only:
    # each entry is an open element's child iterator and the env they inherit
    stack = [(iter((doc,)), LocalEnv())]
    while stack:
        siblings, env = stack[-1]
        node = next(siblings, None)
        if node is None:
            stack.pop()
        elif isinstance(node, Element):
            candidates = by_name.get(node.name, any_node)
            if candidates:
                env = apply(node, candidates, env)
            if node.children:
                stack.append((iter(node.children), env))
        elif text_rules:
            apply(node, text_rules, env)

    return PassOneResult(file, tuple(facts), tuple(tests),
                         tuple(diagnostics), input_digest, rules.source_hash)


def _rules_by_head(rules: RuleSet):
    """Live rules for any element, by element name, and for text nodes.

    $X/$_ heads are in every list.  Each list keeps the ruleset's order,
    which orders facts, tests and conflicting-assignment diagnostics.
    """
    live = [rule for rule in rules.rules if not rule.skipped]
    # a head is its element name, or the class of a $X, $_ or text pattern
    heads = [(r, r.pattern.name if isinstance(r.pattern, (PElem, PEmptyElem))
              else type(r.pattern)) for r in live]
    any_node = [r for r, head in heads if head in (PVar, PAnon)]
    text_rules = [r for r, head in heads if head in (PVar, PAnon, PText)]
    by_name = {name: [r for r, head in heads if head in (PVar, PAnon, name)]
               for _, name in heads if isinstance(name, str)}
    return any_node, by_name, text_rules


def _eval_condition(cond, b: Bindings, env: LocalEnv) -> Optional[Bindings]:
    if isinstance(cond, Eq):
        value = env.get(cond.env_var)
        if value is None:
            return None
        return unify(cond.rhs, value, b)
    root = b.get(cond.var)
    if root is None:
        return None
    solutions = deep_contains(root, cond.pattern, b)
    return solutions[0] if solutions else None


def _ground_term(term: Term, b: Bindings, pos: SourcePos,
                 toplevel: Term | None = None) -> Term:
    """Substitute bindings into term, projecting node values to strings."""
    top = toplevel if toplevel is not None else term
    if isinstance(term, Str):
        return term
    if isinstance(term, Functor):
        return Functor(term.name, tuple(
            _ground_term(a, b, pos, top) for a in term.args))
    value = b.get(term.name)
    if value is None:
        raise NonGroundAssertion(pos, top, term.name)
    if isinstance(value, TermVal):
        return value.term
    return Str(string_projection(value))


def _ground_value(term: Term, b: Bindings, pos: SourcePos) -> Value:
    if isinstance(term, Str):
        return SVal(term.value)
    if isinstance(term, Functor):
        ground = _ground_term(term, b, pos)
        return TermVal(ground)
    value = b.get(term.name)
    if value is None:
        raise NonGroundAssertion(pos, term, term.name)
    return value


def _capture_test(rule: Rule, b: Bindings, pos: SourcePos) -> DelayedTest:
    assert isinstance(rule.body, TestRule)
    test = rule.body.test
    wanted = (set(term_vars(test.goal))
              | set(consequence_vars(test.consequence))
              | {"SourceFile", "SourceLine"})
    captured = Bindings()
    for name in sorted(wanted):
        value = b.get(name)
        if value is None:
            continue
        if isinstance(value, (NodeVal, NodeListVal)):
            value = SVal(string_projection(value))
        captured = captured.bind(name, value)
    return DelayedTest(rule.index, test.polarity, test.goal, captured,
                       test.consequence, pos)


# -- pass 2 -------------------------------------------------------------------

class FactStore:
    """Deduplicated ground facts bucketed by functor name and arity.

    A bucket is sorted by term text on the first lookup after a change and
    that order is reused until the next add to it.  index(name, arity, key)
    groups the sorted bucket by key(fact), so a builtin answers by one dict
    probe instead of a scan; it is cached per key function until the next
    add to the bucket.
    """

    def __init__(self):
        self._by_key: dict[tuple[str, int], dict[Functor, Fact]] = {}
        self._sorted: dict[tuple[str, int], tuple[Fact, ...]] = {}
        self._indexes: dict[tuple[str, int], dict[Callable, dict]] = {}

    def add(self, fact: Fact) -> None:
        key = (fact.term.name, len(fact.term.args))
        bucket = self._by_key.setdefault(key, {})
        bucket.setdefault(fact.term, fact)
        self._sorted.pop(key, None)
        self._indexes.pop(key, None)

    def lookup(self, name: str, arity: int) -> tuple[Fact, ...]:
        key = (name, arity)
        if key not in self._sorted:
            self._sorted[key] = tuple(sorted(
                self._by_key.get(key, {}).values(),
                key=lambda f: term_to_text(f.term)))
        return self._sorted[key]

    def index(self, name: str, arity: int,
              key: Callable[[Fact], object]) -> dict:
        """key(fact) -> the facts with that key, in lookup order."""
        indexes = self._indexes.setdefault((name, arity), {})
        if key not in indexes:
            groups: dict = {}
            for fact in self.lookup(name, arity):
                groups.setdefault(key(fact), []).append(fact)
            indexes[key] = {k: tuple(v) for k, v in groups.items()}
        return indexes[key]

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_key.values())

    def __iter__(self):
        for key in sorted(self._by_key):
            yield from self.lookup(*key)


def merge_facts(results: list[PassOneResult]) -> FactStore:
    store = FactStore()
    for result in results:
        for fact in result.facts:
            store.add(fact)
    return store


def solve(goal: Functor, b: Bindings, store: FactStore,
          builtins: BuiltinRegistry) -> list[Bindings]:
    key = (goal.name, len(goal.args))
    if key in builtins:
        return builtins[key](goal.args, b, store)
    facts = store.lookup(*key)
    if not facts:
        raise UnknownPredicate(*key)
    out = []
    for fact in facts:
        b2 = unify(goal, fact.term, b)
        if b2 is not None:
            out.append(b2)
    return out


def resolve_tests(tests: list[DelayedTest], store: FactStore,
                  builtins: BuiltinRegistry):
    """Solve every delayed test; returns (messages, diagnostics)."""
    messages: list[reporting.Message] = []
    diagnostics: list[str] = []
    unknown_reported: set[tuple[str, int]] = set()

    for dt in tests:
        try:
            solutions = solve(dt.goal, dt.captured, store, builtins)
        except UnknownPredicate as exc:
            key = (exc.name, exc.arity)
            if key not in unknown_reported:
                unknown_reported.add(key)
                diagnostics.append(str(exc))
            continue
        except BuiltinError as exc:
            diagnostics.append(f"{dt.pos.file}:{dt.pos.line}: {exc}")
            continue

        try:
            if dt.polarity is Polarity.IF_ABSENT:
                if not solutions:
                    html, text = reporting.render_consequence(
                        dt.consequence, dt.captured)
                    messages.append(reporting.Message(
                        dt.pos, dt.rule_index, html, text, ""))
            else:
                seen: set[str] = set()
                for sol in solutions:
                    html, text = reporting.render_consequence(
                        dt.consequence, sol)
                    if html in seen:
                        continue
                    seen.add(html)
                    key = _solution_key(sol, dt.captured)
                    messages.append(reporting.Message(
                        dt.pos, dt.rule_index, html, text, key))
        except reporting.UnboundInConsequence as exc:
            diagnostics.append(
                f"{dt.pos.file}:{dt.pos.line}: message template uses "
                f"unbound variable ${exc.var}")
    return messages, diagnostics


def _solution_key(solution: Bindings, captured: Bindings) -> str:
    parts = []
    for name, value in sorted(solution.items()):
        if name in captured:
            continue
        parts.append(f"{name}={string_projection(value)}")
    return ",".join(parts)


# -- pass-1 result cache ------------------------------------------------------
#
# One JSON document per input file.  A term is a string (Str) or a list
# [name, *args] (Functor); a captured value is stored as the term it holds.
# A delayed test is stored as [rule_index, line, {var: value}]: its goal and
# consequence are read back from the ruleset, whose digest is in the entry.
# {var: value} leaves out $SourceFile and $SourceLine, which are always the
# input path and the test's line: an entry does not depend on the path.

CACHE_FORMAT = 3
_POSITION_VARS = ("SourceFile", "SourceLine")


def serialize_pass1(result: PassOneResult) -> str:
    return json.dumps({
        "format": CACHE_FORMAT,
        "input": result.input_digest,
        "rules": result.rules_digest,
        "facts": [_term_to_json(fact.term) for fact in result.facts],
        "tests": [[dt.rule_index, dt.pos.line,
                   {name: _value_to_json(value)
                    for name, value in dt.captured.items()
                    if name not in _POSITION_VARS}]
                  for dt in result.tests],
        "diags": list(result.diagnostics),
    }, separators=(",", ":"))


def parse_pass1(text: str, source_file: str,
                rules: RuleSet) -> PassOneResult:
    """ValueError unless text is a complete entry for this ruleset."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT:
        raise ValueError("not a current pass-1 cache entry")
    if doc.get("rules") != rules.source_hash:
        raise ValueError("cache entry was written for another ruleset")
    facts = []
    for item in _typed(doc.get("facts"), list):
        term = _term_from_json(item)
        if not isinstance(term, Functor):
            raise ValueError(f"bad cached fact {item!r}")
        facts.append(Fact(term, SourcePos(source_file, 1)))
    tests = tuple(_test_from_json(item, source_file, rules)
                  for item in _typed(doc.get("tests"), list))
    diagnostics = tuple(_typed(d, str)
                        for d in _typed(doc.get("diags"), list))
    return PassOneResult(source_file, tuple(facts), tests, diagnostics,
                         _typed(doc.get("input"), str), rules.source_hash)


def _typed(value, kind: type):
    # exact type check: bool is an int subclass and must not pass as one
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


def _term_to_json(t: Term):
    if isinstance(t, Str):
        return t.value
    if isinstance(t, Functor):
        return [t.name, *(_term_to_json(a) for a in t.args)]
    raise ValueError(f"non-ground term not serializable: {t!r}")


def _term_from_json(item) -> Term:
    if type(item) is str:
        return Str(item)
    if type(item) is list and item and type(item[0]) is str:
        return Functor(item[0], tuple(_term_from_json(a) for a in item[1:]))
    raise ValueError(f"bad cached term {item!r}")


def _value_to_json(value: Value):
    # pass 1 captures only strings and ground functors
    if isinstance(value, SVal):
        return value.value
    if isinstance(value, TermVal) and isinstance(value.term, Functor):
        return _term_to_json(value.term)
    raise ValueError(f"value not serializable: {value!r}")


def _value_from_json(item) -> Value:
    term = _term_from_json(item)
    return SVal(term.value) if isinstance(term, Str) else TermVal(term)


def _test_from_json(item, source_file: str, rules: RuleSet) -> DelayedTest:
    if type(item) is not list or len(item) != 3:
        raise ValueError(f"bad cached test {item!r}")
    index, line, captured = (_typed(item[0], int), _typed(item[1], int),
                             _typed(item[2], dict))
    rule = rules.rules[index] if 0 <= index < len(rules.rules) else None
    if rule is None or not isinstance(rule.body, TestRule):
        raise ValueError(f"cached test names rule {index}, not a test rule")
    test = rule.body.test
    bindings = (Bindings({name: _value_from_json(value)
                          for name, value in captured.items()})
                .bind("SourceFile", SVal(source_file))
                .bind("SourceLine", SVal(str(line))))
    return DelayedTest(index, test.polarity, test.goal, bindings,
                       test.consequence, SourcePos(source_file, line))
