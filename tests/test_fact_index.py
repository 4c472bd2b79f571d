"""The fact store's one index against a full scan, and what pass 2 costs.

The reference functions below are the oracle: they rescan every fact on
every query, in insertion order, the way a store without an index answers.
`solve` and the personne1/pubbyotherproject builtins probe
FactStore.index(name, arity, positions) instead, and must give the same
answers in the same order; the reference solver matches through the
wrapper-based unify of legacy_unify, not through the code under test.  Pass
2 renders no fact, matches a goal only against the facts under its probed
key, and gives a report that does not depend on the order of the inputs,
and so of the facts.
"""

import itertools
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semlint import engine
from semlint.builtins import make_registry, strip_accents
from semlint.cli import RunConfig, execute
from semlint.engine import (DelayedTest, FactStore, UnknownPredicate,
                            merge_facts, resolve_tests, solve)
from semlint.rule_ast import Polarity, TestRule, compile_consequence
from semlint.terms import Functor, Var, is_ground
from semlint.xml_frontend import SourcePos
from legacy_unify import unify, unwrap
from stub_prober import StubProber

B0 = {}
NAMES = ["Anne", "anne", "ANNE", "Dupónt", "Dupont", "Émile", "emile", ""]
PROJECTS = ["acacia", "Acacia", "orpailleur", "éa"]
TITLES = ["T1", "t1", "Thé", "The", ""]
BUCKETS = [("personne", 3), ("personne", 2), ("pub", 2), ("pub", 3)]


# -- reference: a full scan per query -----------------------------------------

def ref_lookup(facts, name, arity):
    bucket = {}
    for fact in facts:
        if fact.name == name and len(fact.args) == arity:
            bucket.setdefault(fact)
    return list(bucket)


def ref_personne1(facts, wanted, normalize):
    # a term argument is compared as the term itself; it used to be read
    # as "", so that personne(f("Doe"), "Doe", "p") matched "", "Doe", "p"
    fold = strip_accents if normalize else (lambda s: s)

    def key(args):
        return tuple(fold(a) if isinstance(a, str) else a for a in args)

    if any(key(fact.args) == key(wanted)
           for fact in ref_lookup(facts, "personne", 3)):
        return [B0]
    return []


def ref_pubbyotherproject(facts, title, project):
    out = []
    for fact in ref_lookup(facts, "pub", 2):
        fact_title, fact_proj = fact.args
        if not isinstance(fact_title, str) or not isinstance(fact_proj, str):
            continue
        if fact_title == title and fact_proj != project:
            out.append({"O": fact_proj})
    return out


def ref_solve(facts, goal, b):
    bucket = ref_lookup(facts, goal.name, len(goal.args))
    if not bucket:
        raise UnknownPredicate(goal.name, len(goal.args))
    return [{name: unwrap(value) if name not in b else value
             for name, value in b2.items()}
            for fact in bucket if (b2 := unify(goal, fact, b)) is not None]


# -- random fact sets ---------------------------------------------------------

def args_from(pool):
    return st.one_of(
        st.sampled_from(pool),
        st.sampled_from(pool).map(lambda s: Functor("f", (s,))),
        st.just(Functor("nil", ())))


def terms():
    return st.one_of(
        st.tuples(args_from(NAMES), args_from(NAMES), args_from(PROJECTS))
        .map(lambda a: Functor("personne", a)),
        st.tuples(args_from(NAMES), args_from(NAMES))
        .map(lambda a: Functor("personne", a)),
        st.tuples(args_from(TITLES), args_from(PROJECTS))
        .map(lambda a: Functor("pub", a)),
        st.tuples(args_from(TITLES), args_from(PROJECTS), args_from(TITLES))
        .map(lambda a: Functor("pub", a)))


person_queries = st.lists(st.tuples(args_from(NAMES), args_from(NAMES),
                                    args_from(PROJECTS)), max_size=6)
pub_queries = st.lists(st.tuples(st.sampled_from(TITLES),
                                 st.sampled_from(PROJECTS)), max_size=6)


def check_against_scan(store, facts, registry, people, pubs, normalize):
    for name, arity in BUCKETS:
        assert list(store.lookup(name, arity)) == ref_lookup(facts, name,
                                                             arity)
    personne1 = registry[("personne1", 3)]
    for wanted in people:
        # each argument given as it is, and as a bound variable
        b = dict(zip("PNJ", wanted))
        for args in (tuple(wanted), (Var("P"), Var("N"), Var("J"))):
            got = personne1(args, b, store)
            assert got == [b] * len(ref_personne1(facts, wanted, normalize))
    pubbyotherproject = registry[("pubbyotherproject", 3)]
    for title, project in pubs:
        got = pubbyotherproject((title, project, Var("O")), B0,
                                store)
        assert got == ref_pubbyotherproject(facts, title, project)


@given(first=st.lists(terms(), max_size=25),
       later=st.lists(terms(), max_size=10),
       people=person_queries, pubs=pub_queries, normalize=st.booleans())
@settings(max_examples=300, deadline=None)
def test_indexed_store_matches_full_scan(first, later, people, pubs,
                                         normalize):
    registry = make_registry(StubProber(), offline=True,
                             normalize_names=normalize)
    store = FactStore()
    facts = []
    # every term is added twice, and later ones only after the first queries
    for batch in (first + first, later + later):
        for term in batch:
            store.add(term)
            facts.append(term)
        check_against_scan(store, facts, registry, people, pubs, normalize)
        # queried people and titles also come from the stored facts, with
        # variants that match only when names are normalised
        people_in = [tuple(vary(a) if isinstance(a, str) else a
                           for a in f.args)
                     for f in ref_lookup(facts, "personne", 3)
                     for vary in (str, str.upper, strip_accents)]
        pubs_in = [(f.args[0], p)
                   for f in ref_lookup(facts, "pub", 2)
                   if isinstance(f.args[0], str) for p in PROJECTS]
        check_against_scan(store, facts, registry, people_in, pubs_in,
                           normalize)


# -- solve against the full scan ----------------------------------------------

VARS = ["X", "Y", "Z"]


def goal_args(pool):
    """Ground, non-ground-functor and (possibly repeated) variable args."""
    return st.one_of(
        args_from(pool),
        st.sampled_from(VARS).map(Var),
        st.sampled_from(VARS).map(lambda v: Functor("f", (Var(v),))))


def goals():
    return st.one_of(
        st.tuples(goal_args(NAMES), goal_args(NAMES), goal_args(PROJECTS))
        .map(lambda a: Functor("personne", a)),
        st.tuples(goal_args(NAMES), goal_args(NAMES))
        .map(lambda a: Functor("personne", a)),
        st.tuples(goal_args(TITLES), goal_args(PROJECTS))
        .map(lambda a: Functor("pub", a)),
        st.tuples(goal_args(TITLES), goal_args(PROJECTS),
                  goal_args(TITLES))
        .map(lambda a: Functor("pub", a)))


# each variable is unbound or bound to a ground term: a bound value is
# never a variable
bindings = st.dictionaries(st.sampled_from(VARS), args_from(NAMES + PROJECTS),
                           max_size=3)


def probed(facts, goal, b):
    """The facts that share the goal's ground arguments, recounted here."""
    args = [b.get(a.name, a) if isinstance(a, Var) else a for a in goal.args]
    return [fact for fact in ref_lookup(facts, goal.name, len(args))
            if all(fact.args[i] == a for i, a in enumerate(args)
                   if isinstance(a, str) or is_ground(a))]


def match_calls(call):
    calls = 0
    real = engine.match_term

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with mock.patch.object(engine, "match_term", counting):
        result = call()
    return result, calls


@given(facts=st.lists(terms(), max_size=30),
       queries=st.lists(st.tuples(goals(), bindings), min_size=1,
                        max_size=8))
@settings(max_examples=300, deadline=None)
def test_solve_matches_full_scan_and_matches_only_the_probed_facts(
        facts, queries):
    store = merge_facts([engine.PassOneResult(tuple(facts), (), ())])
    for goal, b in queries:
        try:
            want = ref_solve(facts, goal, b)
        except UnknownPredicate:
            with pytest.raises(UnknownPredicate):
                solve(goal, b, store, {})
            continue
        got, calls = match_calls(lambda: solve(goal, b, store, {}))
        assert got == want
        assert calls <= len(probed(facts, goal, b))


def test_a_ground_argument_probes_one_key_of_a_large_bucket():
    store = merge_facts([engine.PassOneResult(tuple(
        Functor("rel", (f"k{i % 100}", str(i))) for i in range(1000)),
        (), ())])
    got, calls = match_calls(lambda: solve(
        Functor("rel", ("k7", Var("V"))), B0, store, {}))
    assert [s["V"] for s in got] == [str(i) for i in range(7, 1000, 100)]
    assert calls == 10
    # a bound variable is a ground argument too; none at all is a scan
    assert match_calls(lambda: solve(
        Functor("rel", (Var("K"), Var("V"))), {"K": "k7"}, store, {}))[1] \
        == 10
    assert match_calls(lambda: solve(
        Functor("rel", (Var("K"), Var("K"))), B0, store, {}))[1] == 1000


# -- cost guard: pass 2 renders no fact ---------------------------------------

def goal_tests(n):
    goals = [
        Functor("personne1", ("First3", "Last3", "p1")),
        Functor("personne1", ("Nobody", "Last3", "p1")),
        Functor("pubbyotherproject", ("Title2", "p0", Var("O"))),
        Functor("member", (Var("M"),)),
    ]
    return [DelayedTest(i, TestRule(Polarity.IF_ABSENT, goals[i % len(goals)],
                                    "warn", compile_consequence("warn"), ()),
                        B0, SourcePos("f.xml", i + 1))
            for i in range(n)]


@pytest.mark.parametrize("n_tests", [1, 40, 800])
def test_pass2_renders_each_fact_at_most_once(monkeypatch, n_tests):
    terms_ = ([Functor("personne", (f"First{i}", f"Last{i}",
                                    f"p{i % 2}")) for i in range(30)]
              + [Functor("pub", (f"Title{i % 10}", f"p{i % 3}"))
                 for i in range(30)]
              + [Functor("member", (f"m{i}",)) for i in range(20)])
    store = merge_facts([engine.PassOneResult(tuple(terms_), (), ())])
    renders = 0
    real = engine.term_to_text

    def counting(t):
        nonlocal renders
        renders += 1
        return real(t)

    monkeypatch.setattr(engine, "term_to_text", counting)
    registry = make_registry(StubProber(), offline=True,
                             normalize_names=True)
    messages, diagnostics = resolve_tests(goal_tests(n_tests), store,
                                          registry)
    assert diagnostics == []
    # buckets are never sorted, so no fact is rendered at all
    assert renders == 0


# -- the report does not depend on the order of the facts ---------------------

REL_RULES = """\
<f k=$K a=$A b=$B/> => rel($K,$A,$B);
<q k=$K/> ? rel($K,$A,$B) -> <li> <$B> </li>;
<q k=$K/> ? rel($K,$A,$K) -> <li> <$A> loops </li>;
<q k=$K/> ? rel("k",$A,$B) / <li> no k for <$K> </li>;
"""


def reports(files, orders, fmt):
    """The report of a cold run over the files in each of the orders."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "rel.rules").write_text(REL_RULES, encoding="utf-8")
        paths = []
        for i, body in enumerate(files):
            path = root / f"in{i}.xml"
            path.write_text(f"<r>\n{body}\n</r>\n", encoding="utf-8")
            paths.append(str(path))
        return [execute(RunConfig(
            [str(root / "rel.rules")], [paths[i] for i in order],
            str(root / f"cache{n}"), format=fmt, offline=True)).report
            for n, order in enumerate(orders)]


def rel(k, a, b):
    return f'<f k="{k}" a="{a}" b="{b}"/>'


ROADMAP_CASE = [rel("k", 1, "x"), rel("k", 3, "x"),
                rel("k", 2, "y") + '\n<q k="k"/>']


def test_first_solution_no_longer_depends_on_fact_order():
    # per html the smallest solution key wins: A=1 for x, A=2 for y
    for report in reports(ROADMAP_CASE, itertools.permutations(range(3)),
                          "text"):
        assert [line.split(": ", 1)[1]
                for line in report.splitlines()[:-1]] == ["x", "y"]


keys = st.sampled_from(["k", "m", "x"])
rel_facts = st.builds(rel, keys, st.sampled_from("1234"),
                      st.sampled_from(["x", "y", "k", "m"]))
rel_files = st.lists(
    st.lists(st.one_of(rel_facts, keys.map(lambda k: f'<q k="{k}"/>')),
             max_size=6).map("\n".join),
    min_size=1, max_size=4)


@given(files=rel_files, seed=st.integers(0, 2**32),
       fmt=st.sampled_from(["text", "html", "machine"]))
@example(files=ROADMAP_CASE, seed=1, fmt="text")
@settings(max_examples=40, deadline=None)
def test_report_is_independent_of_input_order(files, seed, fmt):
    order = list(range(len(files)))
    random.Random(seed).shuffle(order)
    want, got = reports(files, [range(len(files)), order], fmt)
    assert got == want
