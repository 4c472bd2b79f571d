"""Rule execution: per-file traversal (pass 1), fact merging and delayed
test resolution against the global fact store (pass 2).

Pass 1 is a depth-first pre-order walk.  At every node all applicable rules
are matched against the same inherited environment snapshot; assignments
only become visible to the node's children.  Rules are indexed by the
element name of their head (like Rete alpha memories), so each node tries
only the rules whose head can match it.  From the same rules, `projection`
derives the nodes that pass 1 can observe, and the parser builds only those
(XML projection, Marian and Simeon, VLDB 2003).  Facts and tests produced
for a file can be cached on disk as a JSON document that holds each
distinct string once, and replayed bit-exactly; a cached test refers to its
rule by index instead of copying the rule.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from . import SemlintError, reporting, terms
from .matcher import (Bindings, TypeMismatch, Value, deep_contains,
                      match_node, match_term, string_projection)
from .record import POSITION_VARS, Record
from .rule_ast import (Contains, EnvRule, Eq, PAnon, PElem, PEmptyElem,
                       Polarity, PText, PVar, Rule, RuleSet, TestRule)
from .terms import Functor, Term, Var, is_ground
from .xml_frontend import (KEEP, SKIP, WHOLE, Element, Projection, SourcePos,
                           Text, XmlNode)

# called nowhere here; perfbench/tracing.py counts the calls through this name
term_to_text = terms.term_to_text


class EngineError(SemlintError):
    pass


class UnknownPredicate(EngineError):
    def __init__(self, name: str, arity: int):
        super().__init__(f"unknown predicate {name}/{arity}: no builtin and "
                         f"never asserted (possible misspelling)")
        self.name = name
        self.arity = arity


# builtin evaluator: (goal args, bindings, store) -> solutions
BuiltinFn = Callable[[tuple[Term, ...], Bindings, "FactStore"],
                     list[Bindings]]
BuiltinRegistry = dict[tuple[str, int], BuiltinFn]


class DelayedTest(Record, frozen=True):
    __slots__ = (
        "rule_index",
        # the rule's own TestRule: its goal, polarity, template and row names
        "test", "captured", "pos")


class PassOneResult(Record, frozen=True):
    __slots__ = ("facts", "tests", "diagnostics")


def evaluate_file(doc: XmlNode, rules: RuleSet, file: str) -> PassOneResult:
    facts: list[Functor] = []
    tests: list[DelayedTest] = []
    diagnostics: list[str] = []

    by_name, text_rules = _rules_by_head(rules)

    # an environment maps names to values; an assignment extends a copy
    def apply(node: XmlNode, candidates: list[Rule],
              env: dict[str, Value]) -> dict[str, Value]:
        """Fire the candidates that match node; the env its children see."""
        seed = {"SourceFile": file, "SourceLine": str(node.pos.line)}
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
                for act in rule.body.assigns:
                    if act.env_var in assigned_by:
                        diagnostics.append(
                            f"{file}:{node.pos.line}: conflicting "
                            f"assignments to {act.env_var!r} (rule "
                            f"{rule.index} overrides rule "
                            f"{assigned_by[act.env_var]})")
                    assigned_by[act.env_var] = rule.index
                    child_env = {**child_env, act.env_var: _ground_value(
                        act.value, b)}
                facts.extend(_ground_term(f, b) for f in rule.body.asserts)
            else:
                tests.append(_capture_test(rule, b, node.pos))
        return child_env

    # pre-order with an explicit stack, so depth is bounded by memory only:
    # each entry is an open element's child iterator and the env they inherit
    stack = [(iter((doc,)), {})]
    while stack:
        siblings, env = stack[-1]
        node = next(siblings, None)
        if node is None:
            stack.pop()
        elif isinstance(node, Element):
            candidates = by_name.get(node.name)
            if candidates:
                env = apply(node, candidates, env)
            if node.children:
                stack.append((iter(node.children), env))
        elif text_rules:
            apply(node, text_rules, env)

    return PassOneResult(tuple(facts), tuple(tests), tuple(diagnostics))


def _rules_by_head(rules: RuleSet):
    """Live rules by the element name of their head, and text-headed rules.

    A head is an element or text (the parser rejects $X and $_ heads).  Each
    list keeps the ruleset's order, which orders facts, tests and
    conflicting-assignment diagnostics.
    """
    by_name: dict[str, list[Rule]] = {}
    text_rules: list[Rule] = []
    for rule in rules.rules:
        if rule.skipped:
            continue
        if isinstance(rule.pattern, PText):
            text_rules.append(rule)
        else:
            by_name.setdefault(rule.pattern.name, []).append(rule)
    return by_name, text_rules


# the kind of the child position that a child pattern aligns with
_KIND = {PVar: WHOLE, PAnon: SKIP, PElem: KEEP, PEmptyElem: KEEP, PText: KEEP}


def projection(rules: RuleSet) -> Projection | None:
    """What parse_xml must build for pass 1 to see what a full tree shows;
    None if that is every node, as under a text head.  This is sound:
    - pass 1 fires rules only at elements whose name heads a live rule (the
      DSL rejects $X and $_ heads), and such an element is always built;
    - a rule reads only the nodes that its head pattern aligns with: a child
      aligned with an element, empty-element or text pattern is built (KEEP),
      one aligned with a $X with its whole subtree (WHOLE), and one aligned
      only with $_, or where no pattern of its parent's name has a child, is
      a placeholder in the same place (SKIP);
    - contains, rendering, string projection and node comparison read only
      values bound by a $X;
    - environment assignments happen only at head-named elements, so a
      placeholder passes its parent's environment through unchanged.
    A row covers each element pattern of its name: heads, nested patterns
    and, to be safe, contains patterns.
    """
    by_name, text_rules = _rules_by_head(rules)
    if text_rules:
        return None
    live = [rule for named in by_name.values() for rule in named]
    patterns = [rule.pattern for rule in live] + [
        cond.pattern for rule in live for cond in rule.conditions
        if isinstance(cond, Contains)]
    shapes: dict[str, list] = {}
    while patterns:
        p = patterns.pop()
        if isinstance(p, (PElem, PEmptyElem)):
            ps = p.children if isinstance(p, PElem) else ()
            patterns.extend(ps)
            tail = ps[-1].__class__ if ps else None
            fixed = ps[:-1] if tail in (PVar, PAnon) else ps
            shapes.setdefault(p.name, []).append((
                [_KIND[c.__class__] for c in fixed],
                WHOLE if tail is PVar else SKIP))
    rows = {}
    for name, shape in shapes.items():
        width = max(len(kinds) for kinds, _ in shape)
        padded = [kinds + [rest] * (width - len(kinds))
                  for kinds, rest in shape]
        rows[name] = (tuple(map(max, zip(*padded))),
                      max(rest for _, rest in shape))
    return Projection(frozenset(by_name), rows)


def _eval_condition(cond, b: Bindings,
                    env: dict[str, Value]) -> Optional[Bindings]:
    if isinstance(cond, Eq):
        value = env.get(cond.env_var)
        if value is None:
            return None
        return match_term(cond.rhs, value, b)
    # the parser rejects a contains variable that nothing before binds
    solutions = deep_contains(b[cond.var], cond.pattern, b)
    return solutions[0] if solutions else None


def _ground_term(term: Term, b: Bindings) -> Term:
    """Substitute bindings into term, projecting node values to strings.

    validate has checked that the rule's pattern and conditions bind every
    variable of an action, and a firing rule has bound them all."""
    if isinstance(term, str):
        return term
    if isinstance(term, Functor):
        return Functor(term.name, tuple(_ground_term(a, b) for a in term.args))
    return _project_nodes(b[term.name])


def _project_nodes(value: Value) -> Value:
    """A node or node list as the string it projects to; a term as itself."""
    if isinstance(value, (Element, Text, tuple)):
        return string_projection(value)
    return value


def _ground_value(term: Term, b: Bindings) -> Value:
    return b[term.name] if isinstance(term, Var) else _ground_term(term, b)


def _capture_test(rule: Rule, b: Bindings, pos: SourcePos) -> DelayedTest:
    captured = {name: _project_nodes(b[name])
                for name in (*rule.body.captured, *POSITION_VARS)}
    return DelayedTest(rule.index, rule.body, captured, pos)


# -- pass 2 -------------------------------------------------------------------

class FactStore:
    """Deduplicated ground facts (functors) by functor name and arity.

    A bucket keeps insertion order and is never sorted.  The one index,
    index(name, arity, positions), maps the tuple of a fact's arguments at
    positions to those facts, in bucket order: the JIT clause indexing of
    Prolog on the bound arguments of a goal.  It is built from lookup on
    first use and dropped by the next add to the bucket.
    """

    def __init__(self, known=()):
        # a bucket is a dict used as an insertion-ordered set; a known
        # (name, arity) has one from the start, even if no fact comes
        self._by_key: dict[tuple[str, int], dict[Functor, None]] = {
            key: {} for key in known}
        self._indexes: dict[tuple[str, int], dict[tuple, dict]] = {}

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._by_key

    def add(self, fact: Functor) -> None:
        key = (fact.name, len(fact.args))
        self._by_key.setdefault(key, {})[fact] = None
        self._indexes.pop(key, None)

    def lookup(self, name: str, arity: int) -> tuple[Functor, ...]:
        return tuple(self._by_key.get((name, arity), ()))

    def index(self, name: str, arity: int, positions: tuple[int, ...],
              fold: Callable[[str], str] | None = None) -> dict:
        """Arguments at positions, each str folded if fold is given -> the
        facts with them; empty if name/arity has no fact."""
        indexes = self._indexes.setdefault((name, arity), {})
        groups = indexes.get((positions, fold))
        if groups is None:
            groups = indexes[positions, fold] = {}
            for fact in self.lookup(name, arity):
                key = tuple(fold(a) if fold and isinstance(a, str) else a
                            for a in (fact.args[i] for i in positions))
                groups.setdefault(key, []).append(fact)
        return groups

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_key.values())


def merge_facts(results: list[PassOneResult],
                rules: RuleSet | None = None) -> FactStore:
    """The facts of results; the predicate of each fact in the asserts of a
    live rule of rules is known with no fact too, so that its goals fail
    instead of raising."""
    store = FactStore((fact.name, len(fact.args))
                      for rule in (rules.rules if rules else ())
                      if not rule.skipped and isinstance(rule.body, EnvRule)
                      for fact in rule.body.asserts)
    for result in results:
        for fact in result.facts:
            store.add(fact)
    return store


def solve(goal: Functor, b: Bindings, store: FactStore,
          builtins: BuiltinRegistry) -> list[Bindings]:
    key = (goal.name, len(goal.args))
    if key in builtins:
        return builtins[key](goal.args, b, store)
    if key not in store:
        raise UnknownPredicate(*key)
    # the arguments that are ground once bound pick the facts to try
    args = [b.get(a.name, a) if isinstance(a, Var) else a for a in goal.args]
    ground = tuple(i for i, a in enumerate(args) if is_ground(a))
    groups = store.index(goal.name, len(args), ground)
    out = []
    for fact in groups.get(tuple(args[i] for i in ground), ()):
        b2 = match_term(goal, fact, b)
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
            solutions = solve(dt.test.goal, dt.captured, store, builtins)
        except UnknownPredicate as exc:
            key = (exc.name, exc.arity)
            if key not in unknown_reported:
                unknown_reported.add(key)
                diagnostics.append(str(exc))
            continue

        # validate, builtin modes included, and ground facts leave no
        # variable of a message unbound, so rendering cannot fail
        if dt.test.polarity is Polarity.IF_ABSENT:
            if not solutions:
                html, text, values = reporting.render_consequence(
                    dt.test.template, dt.captured)
                messages.append(reporting.Message(
                    dt.pos, dt.rule_index, html, text, "", values))
        else:
            # per html, the smallest key: the order of facts never shows
            best: dict[str, tuple[str, str, list]] = {}
            for sol in solutions:
                html, text, values = reporting.render_consequence(
                    dt.test.template, sol)
                found = (_solution_key(sol, dt.captured), text, values)
                best[html] = min(best.get(html, found), found)
            for html, (key, text, values) in best.items():
                messages.append(reporting.Message(
                    dt.pos, dt.rule_index, html, text, key, values))
    return messages, diagnostics


def _solution_key(solution: Bindings, captured: Bindings) -> str:
    return ",".join(f"{name}={string_projection(value)}"
                    for name, value in sorted(solution.items())
                    if name not in captured)


# -- pass-1 result cache ------------------------------------------------------
#
# One JSON list [strings, facts, tests, diagnostics] per input file; the
# cache file names the ruleset and the input content it was computed from
# (see cli).  strings holds each distinct string of the entry once, in order
# of first use, predicate and functor names included, as a Prolog system
# keeps each atom once in its atom table.  A term is an int, the index of a
# string, or a list [name index, *args] (Functor); a fact is such a list.  A
# delayed test is [rule_index, step, row]: step is its line minus the line of
# the test before it (the first test's is its line) and may be negative;
# tests in document order give small steps, which compress well.  Its goal and
# consequence are read back from the ruleset, and row holds one term for each
# name of the rule's TestRule.captured in order: the names that pass 1 binds,
# never null.  $SourceFile and $SourceLine are left out, always the input
# path and the test's line, so an entry does not depend on the path.
# Diagnostics are plain strings.

def serialize_pass1(result: PassOneResult) -> str:
    table: dict[str, int] = {}

    def encode(t: Term):
        # pass 1 binds strings and ground functors only
        if isinstance(t, str):
            return table.setdefault(t, len(table))
        return [table.setdefault(t.name, len(table)), *map(encode, t.args)]

    facts = [encode(fact) for fact in result.facts]
    lines = [dt.pos.line for dt in result.tests]
    tests = [[dt.rule_index, line - previous, [
        encode(dt.captured[name]) for name in dt.test.captured]]
        for dt, line, previous in zip(result.tests, lines, [0, *lines])]
    return json.dumps([list(table), facts, tests, list(result.diagnostics)],
                      separators=(",", ":"))


def parse_pass1(text: str, source_file: str, rules: RuleSet) -> PassOneResult:
    """ValueError unless text is a complete entry for this ruleset.  Equal
    strings of its terms are one object."""
    # unpacking raises ValueError unless the list has four items
    strings, facts_doc, tests_doc, diags_doc = _typed(json.loads(text), list)
    table = _typed(strings, list)
    if not all(type(s) is str for s in table):
        raise ValueError(f"bad cached string table {table!r}")

    def decode(item) -> Term:
        # exact type checks: bool is an int subclass and must not pass as one
        if type(item) is int and 0 <= item < len(table):
            return table[item]
        if type(item) is list and item and type(item[0]) is int:
            return Functor(decode(item[0]), tuple(map(decode, item[1:])))
        raise ValueError(f"bad cached term {item!r}")

    facts = tuple(decode(_typed(item, list))
                  for item in _typed(facts_doc, list))
    tests, line = [], 0  # a line is the running sum of the steps
    for item in _typed(tests_doc, list):
        tests.append(_test_from_json(item, line, source_file, rules, decode))
        line = tests[-1].pos.line
    diagnostics = tuple(_typed(d, str) for d in _typed(diags_doc, list))
    return PassOneResult(facts, tuple(tests), diagnostics)


def _typed(value, kind: type):
    # exact type check: bool is an int subclass and must not pass as one
    if type(value) is not kind:
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


def _test_from_json(item, previous: int, source_file: str, rules: RuleSet,
                    decode: Callable[[object], Term]) -> DelayedTest:
    if type(item) is not list or len(item) != 3:
        raise ValueError(f"bad cached test {item!r}")
    index, line, row = (_typed(item[0], int), previous + _typed(item[1], int),
                        _typed(item[2], list))
    rule = rules.rules[index] if 0 <= index < len(rules.rules) else None
    if rule is None or not isinstance(rule.body, TestRule):
        raise ValueError(f"cached test names rule {index}, not a test rule")
    if len(row) != len(rule.body.captured):
        raise ValueError(f"cached test row {row!r} does not fit rule {index}")
    captured = dict(zip((*rule.body.captured, *POSITION_VARS),
                        (*map(decode, row), source_file, str(line))))
    return DelayedTest(index, rule.body, captured,
                       SourcePos(source_file, line))
