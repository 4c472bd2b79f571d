"""The indexed fact store against a full scan, and its cost in term renders.

The reference functions below rescan every fact on every query, the way
FactStore.lookup and the personne1/pubbyotherproject builtins did before
buckets were sorted once and indexed by key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlint import engine
from semlint.builtins import make_registry, strip_accents
from semlint.engine import DelayedTest, FactStore, merge_facts, resolve_tests
from semlint.rule_ast import Polarity, Test
from semlint.terms import Functor, Var, term_to_text
from semlint.xml_frontend import SourcePos
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
    return sorted(bucket, key=term_to_text)


def ref_personne1(facts, wanted, normalize):
    fold = strip_accents if normalize else (lambda s: s)
    wanted = tuple(fold(w) for w in wanted)
    for fact in ref_lookup(facts, "personne", 3):
        got = tuple(fold(a if isinstance(a, str) else "")
                    for a in fact.args)
        if got == wanted:
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
        st.tuples(args_from(NAMES), args_from(PROJECTS))
        .map(lambda a: Functor("personne", a)),
        st.tuples(args_from(TITLES), args_from(PROJECTS))
        .map(lambda a: Functor("pub", a)),
        st.tuples(args_from(TITLES), args_from(PROJECTS), args_from(TITLES))
        .map(lambda a: Functor("pub", a)))


person_queries = st.lists(st.tuples(st.sampled_from(NAMES),
                                    st.sampled_from(NAMES),
                                    st.sampled_from(PROJECTS)), max_size=6)
pub_queries = st.lists(st.tuples(st.sampled_from(TITLES),
                                 st.sampled_from(PROJECTS)), max_size=6)


def check_against_scan(store, facts, registry, people, pubs, normalize):
    for name, arity in BUCKETS:
        assert list(store.lookup(name, arity)) == ref_lookup(facts, name,
                                                             arity)
    personne1 = registry[("personne1", 3)]
    for wanted in people:
        got = personne1(tuple(wanted), B0, store)
        assert got == ref_personne1(facts, wanted, normalize)
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
        people_in = [tuple(vary(a) for a in f.args)
                     for f in ref_lookup(facts, "personne", 3)
                     if all(isinstance(a, str) for a in f.args)
                     for vary in (str, str.upper, strip_accents)]
        pubs_in = [(f.args[0], p)
                   for f in ref_lookup(facts, "pub", 2)
                   if isinstance(f.args[0], str) for p in PROJECTS]
        check_against_scan(store, facts, registry, people_in, pubs_in,
                           normalize)


# -- cost guard ---------------------------------------------------------------

def goal_tests(n):
    goals = [
        Functor("personne1", ("First3", "Last3", "p1")),
        Functor("personne1", ("Nobody", "Last3", "p1")),
        Functor("pubbyotherproject", ("Title2", "p0", Var("O"))),
        Functor("member", (Var("M"),)),
    ]
    return [DelayedTest(i, Test(Polarity.IF_ABSENT, goals[i % len(goals)],
                                "warn"), B0, SourcePos("f.xml", i + 1))
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
    assert renders <= len(store) == 80
