"""End-to-end acceptance suite.

Each test here covers one numbered acceptance criterion; conftest prints a
PASS/FAIL line per criterion in the terminal summary.
"""

import random
import time

from semlint.cli import RunConfig, execute
from semlint.dsl_parser import parse_rules
from semlint.matcher import (deep_contains, match_children, match_node,
                             match_term, string_projection)
from semlint.rule_ast import (AttrPattern, EnvRule, PAnon, PElem, PVar,
                              TestRule)
from semlint.terms import Functor, Var
from semlint.xml_frontend import Element, parse_xml

import cache_pack
import legacy_unify
from test_matcher import (oracle_contains, plain_bindings, random_pattern,
                          random_tree)

B0 = {}


def corpus_config(corpus, cache=None, **kw):
    return RunConfig(rule_files=corpus["rules"], inputs=corpus["inputs"],
                     cache_dir=cache or corpus["cache"], url_timeout=5.0,
                     **kw)


def test_criterion_1_ruleset_fidelity(raweb_rules_text):
    start = time.perf_counter()
    rs = parse_rules(raweb_rules_text, "raweb.rules")
    elapsed = time.perf_counter() - start
    assert len(rs.rules) == 11
    env = sum(isinstance(r.body, EnvRule) for r in rs.rules)
    tests = sum(isinstance(r.body, TestRule) for r in rs.rules)
    assert env == 7
    assert tests == 4
    assert env + tests == 11
    assert elapsed < 1.0


def test_criterion_2_citation_worked_example():
    doc = parse_xml(b"""<citation type="thesis" year="2003">
  <title> Handling Markup Streams </title>
  <author> A. Student </author>
  <school> Graduate School </school>
  <year> 2003 </year>
</citation>""", "cit.xml")
    pattern = PElem("citation", (AttrPattern("year", Var("Y")),),
                    (PVar("T"), PVar("R")))
    b = match_node(pattern, doc, B0)
    assert b is not None
    assert b["Y"] == "2003"
    t = b["T"]
    assert isinstance(t, Element) and t.name == "title"
    r = b["R"]
    assert isinstance(r, tuple) and len(r) >= 3
    assert [n.name for n in r] == ["author", "school", "year"]


def test_criterion_3_seeded_corpus(seeded_corpus, fixed_corpus):
    start = time.perf_counter()
    outcome = execute(corpus_config(seeded_corpus))
    texts = sorted(m.text for m in outcome.messages)
    assert len(texts) == 4, texts
    expected = [
        "does not appear in the list of project's members",
        "has not been published during this year",
        "has been published in cooperation with",
        "404",
    ]
    for needle in expected:
        assert sum(needle in t for t in texts) == 1, (needle, texts)
    assert outcome.diagnostics == []

    clean = execute(corpus_config(fixed_corpus))
    assert clean.messages == []
    assert clean.diagnostics == []
    assert time.perf_counter() - start < 5.0


SCOPING_RULES = """\
<raweb> <$_> </raweb> => project := "demo" & defperso := "false";
<catperso> <$_> </catperso> => defperso := "true";
<pers prenom=$P nom=$N> <$_> </pers>
& defperso = "true" & project = $Proj
  => personne($P,$N,$Proj);
<pers prenom=$P nom=$N> <$_> </pers>
& defperso = "false" & project = $Proj
? personne1($P,$N,$Proj) / <li> unknown <$P> <$N> </li> ;
"""


def test_criterion_4_environment_scoping():
    from semlint.engine import evaluate_file
    rules = parse_rules(SCOPING_RULES, "r.rules")
    doc = parse_xml(b"""<raweb>
  <catperso>
    <pers prenom="Anne" nom="Martin"><role>Head</role></pers>
  </catperso>
  <composition>
    <pers prenom="Anne" nom="Martin"><role>Head</role></pers>
  </composition>
</raweb>""", "doc.xml")
    for _ in range(3):  # deterministic across repeated evaluations
        result = evaluate_file(doc, rules, "doc.xml")
        assert list(result.facts) == [
            Functor("personne", ("Anne", "Martin", "demo"))]
        assert [(t.test.goal.name, t.pos.line) for t in result.tests] == [
            ("personne1", 6)]


def test_criterion_5_contains_oracle():
    start = time.perf_counter()
    rng = random.Random(1372)
    for _ in range(1000):
        tree = random_tree(rng, 200)
        pattern = random_pattern(rng)
        root = tree if rng.random() < 0.5 else tree.children
        assert deep_contains(root, pattern, B0) == \
            oracle_contains(root, pattern, B0)
    assert time.perf_counter() - start < 30.0


def test_criterion_6_determinism_and_cache_soundness(tmp_path,
                                                     stub_http_server,
                                                     raweb_rules_path):
    from conftest import make_corpus
    corpus = make_corpus(tmp_path / "corpus", stub_http_server,
                         raweb_rules_path, fixed=False)
    reports = [
        execute(corpus_config(corpus, cache=str(tmp_path / "c1"),
                              format="machine")).report,   # cold
        execute(corpus_config(corpus, cache=str(tmp_path / "c2"),
                              format="machine")).report,   # cold again
        execute(corpus_config(corpus, cache=str(tmp_path / "c2"),
                              format="machine")).report,   # warm
    ]
    for path in corpus["inputs"][1::2]:
        cache_pack.drop_entry(tmp_path / "c2", path)
    partly = execute(corpus_config(corpus, cache=str(tmp_path / "c2"),
                                   format="machine"))
    assert partly.evaluated == corpus["inputs"][1::2]
    reports.append(partly.report)
    assert len(set(reports)) == 1


def test_criterion_7_incrementality(tmp_path):
    rules = tmp_path / "check.rules"
    rules.write_text(
        '<pers nom=$N> <$_> </pers> => personne($N);\n'
        '<check nom=$N/> ? personne($N) / <li> unknown <$N>, line '
        '<$SourceLine> of <$SourceFile>. </li> ;\n', encoding="utf-8")
    inputs = []
    for i in range(10):
        path = tmp_path / f"team{i}.xml"
        check = "ghost" if i == 2 else "known"
        path.write_text(f'<team>\n<pers nom="known"><r/></pers>\n'
                        f'<check nom="{check}"/>\n</team>\n',
                        encoding="utf-8")
        inputs.append(str(path))
    cfg = RunConfig(rule_files=[str(rules)], inputs=inputs,
                    cache_dir=str(tmp_path / "cache"), offline=True)
    first = execute(cfg)
    assert len(first.evaluated) == 10

    victim = tmp_path / "team7.xml"
    victim.write_text(victim.read_text(encoding="utf-8")
                      .replace("<r/>", "<r> </r>"), encoding="utf-8")
    second = execute(cfg)
    assert second.evaluated == [str(victim)]
    assert len(second.cached) == 9
    assert second.report == first.report


def test_criterion_8_matching_invariants():
    rng = random.Random(2816)
    checked = {"monotone": 0, "attrs": 0, "tail": 0, "match": 0}

    def rand_term(depth=0, leaves=(Var("X"), Var("Y"), "0", "1")):
        k = rng.random()
        if k < 0.35 or depth >= 3:
            return rng.choice(leaves)
        return Functor(rng.choice("fg"), tuple(
            rand_term(depth + 1, leaves) for _ in range(rng.randint(0, 3))))

    from semlint.xml_frontend import walk

    for _ in range(400):
        whole = random_tree(rng, 40)
        tree = rng.choice([n for n in walk(whole)
                           if hasattr(n, "children")])
        pattern = random_pattern(rng)

        # binding monotonicity: matching only ever extends the input
        seeded = {"Pre": "kept"}
        b = match_node(pattern, tree, seeded)
        if b is not None:
            checked["monotone"] += 1
            assert b["Pre"] == "kept"

        # attribute-order invariance
        def permute(n):
            if not hasattr(n, "attrs"):
                return n
            attrs = list(n.attrs)
            rng.shuffle(attrs)
            return type(n)(n.name, tuple(attrs),
                           tuple(permute(c) for c in n.children), n.pos)

        b2 = match_node(pattern, permute(tree), B0)
        b1 = match_node(pattern, tree, B0)
        assert (b1 is None) == (b2 is None)
        if b1 is not None:
            checked["attrs"] += 1
            assert {k: string_projection(v) for k, v in b1.items()} == \
                {k: string_projection(v) for k, v in b2.items()}

        # tail-insertion invariance: a trailing wildcard keeps matching
        # after new children are appended
        ps = [random_pattern(rng) for _ in range(rng.randint(0, 3))]
        ps.append(PAnon())
        ns = list(tree.children)
        if match_children(ps, ns, B0) is not None:
            checked["tail"] += 1
            extra = parse_xml(b"<extra/>", "x")
            assert match_children(ps, ns + [extra], B0) is not None

        # a rule term matches a ground value exactly when unification
        # succeeds, with the ground side on either hand
        t, g = rand_term(), rand_term(leaves=("0", "1"))
        b = match_term(t, g, B0)
        for old in (legacy_unify.unify(t, g, B0),
                    legacy_unify.unify(g, t, B0)):
            assert b == (None if old is None else plain_bindings(old))
        checked["match"] += b is not None

    assert all(count > 20 for count in checked.values()), checked
