import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlint.dsl_parser import parse_rules
from semlint.engine import (DelayedTest, FactStore, UnknownPredicate,
                            evaluate_file, merge_facts, parse_pass1,
                            resolve_tests, serialize_pass1, solve)
from semlint.matcher import Bindings, SVal
from semlint.rule_ast import Polarity, Rule, RuleSet
from semlint.terms import Functor, Str, Var
from semlint.xml_frontend import parse_xml

NO_BUILTINS = {}


def ev(rules_text, xml, file="doc.xml"):
    rules = parse_rules(rules_text, "r.rules")
    doc = parse_xml(xml.encode(), file)
    return evaluate_file(doc, rules, file)


MINI_RULES = """\
<raweb> <$_> </raweb> => project := "acacia" & defperso := "false";
<catperso> <$_> </catperso> => defperso := "true";
<pers prenom=$P nom=$N> <$_> </pers>
& defperso = "true" & project = $Proj
  => personne($P,$N,$Proj);
<pers prenom=$P nom=$N> <$_> </pers>
& defperso = "false" & project = $Proj
? personne1($P,$N,$Proj) /
  <li> Warning: <$P> <$N> line <$SourceLine> unknown. </li> ;
"""

MINI_DOC = """\
<raweb>
  <catperso>
    <pers prenom="Anne" nom="Martin"><role>Head</role></pers>
  </catperso>
  <composition>
    <pers prenom="Anne" nom="Martin"><role>Head</role></pers>
    <pers prenom="Zoe" nom="Unknown"><role>Visitor</role></pers>
  </composition>
</raweb>
"""


def mini_builtins():
    def personne1(args, b, store):
        want = tuple(b.get(a.name) if isinstance(a, Var) else SVal(a.value)
                     for a in args)
        for fact in store.lookup("personne", 3):
            if tuple(SVal(x.value) for x in fact.term.args) == want:
                return [b]
        return []
    return {("personne1", 3): personne1}


def test_mini_report_end_to_end():
    result = ev(MINI_RULES, MINI_DOC)
    assert [f.term for f in result.facts] == [
        Functor("personne", (Str("Anne"), Str("Martin"), Str("acacia")))]
    assert len(result.tests) == 2
    store = merge_facts([result])
    msgs, diags = resolve_tests(list(result.tests), store, mini_builtins())
    assert diags == []
    assert len(msgs) == 1
    assert "Zoe Unknown line 7 unknown." in msgs[0].text


def test_declared_member_is_silent():
    doc = MINI_DOC.replace(
        '<pers prenom="Zoe" nom="Unknown"><role>Visitor</role></pers>\n', "")
    result = ev(MINI_RULES, doc)
    store = merge_facts([result])
    msgs, diags = resolve_tests(list(result.tests), store, mini_builtins())
    assert msgs == [] and diags == []


def test_assignments_scope_to_subtree_only():
    rules = """\
<a> <$_> </a> => x := "in-a";
<probe/> & x = $V => seen($V);
"""
    xml = "<root><a><probe/></a><probe/></root>"
    result = ev(rules, xml)
    # the sibling probe outside <a> sees no binding for x at all
    assert [f.term for f in result.facts] == [
        Functor("seen", (Str("in-a"),))]


def test_assignment_invisible_to_assigning_node_itself():
    rules = """\
<a> <$_> </a> => x := "1";
<a> <$_> </a> & x = "1" => fired();
"""
    result = ev(rules, "<a><b/></a>")
    assert result.facts == ()


def test_rules_at_same_node_share_pre_update_snapshot():
    rules = """\
<root> <$_> </root> => x := "outer";
<a/> => x := "inner";
<a/> & x = $V => saw($V);
"""
    result = ev(rules, "<root><a/></root>")
    # the condition reads the environment inherited from <root>,
    # not the sibling assignment made at the same <a/> node
    assert [f.term for f in result.facts] == [
        Functor("saw", (Str("outer"),))]


def test_conflicting_assignments_last_rule_wins_with_diagnostic():
    rules = """\
<a> <$_> </a> => x := "first";
<a> <$_> </a> => x := "second";
<probe/> & x = $V => seen($V);
"""
    result = ev(rules, "<root><a/></root>")
    assert len(result.diagnostics) == 1
    assert "conflicting assignments to 'x'" in result.diagnostics[0]
    result2 = ev(rules, "<root><a><probe/></a></root>")
    assert [f.term for f in result2.facts] == [
        Functor("seen", (Str("second"),))]


def test_predefined_source_bindings():
    rules = "<a/> => at($SourceFile,$SourceLine);"
    result = ev(rules, "<root>\n<a/>\n</root>", file="in.xml")
    assert [f.term for f in result.facts] == [
        Functor("at", (Str("in.xml"), Str("2")))]


def test_skipped_rules_do_not_fire():
    rules = '<* <a/> => f();\n<a/> => g();'
    result = ev(rules, "<a/>")
    assert [f.term.name for f in result.facts] == ["g"]


def test_contains_condition_binds_first_solution():
    rules = """\
<citation> <$A> </citation>
& $A contains <title> <$T> </title>
  => title($T);
"""
    xml = ("<citation><block><title>First</title></block>"
           "<title>Second</title></citation>")
    result = ev(rules, xml)
    assert [f.term for f in result.facts] == [
        Functor("title", (Str("First"),))]


def test_contains_on_a_string_fails_with_a_diagnostic():
    rules = ('<a x=$X/> & $X contains <b/> => p("y");\n'
             '<a x=$X/> => q($X);\n')
    result = ev(rules, '<r>\n<a x="1"/></r>')
    assert [fact.term for fact in result.facts] == [
        Functor("q", (Str("1"),))]
    assert result.diagnostics == (
        "doc.xml:2: $X holds a string, not a node: the contains condition "
        "of rule 0 fails",)


def test_node_values_project_to_strings_in_facts():
    rules = "<a> <$X> </a> => got($X);"
    result = ev(rules, "<a><b> spaced  <c>text</c> </b></a>")
    assert result.facts[0].term == Functor("got", (Str("spaced text"),))


# -- fact store / pass 2 -------------------------------------------------------

def fact_result(*terms):
    rules = "\n".join(f'<f{i}/> => dummy();' for i in range(1))
    result = ev(rules, "<root/>")
    store = merge_facts([result])
    return store


def test_merge_facts_deduplicates_across_files():
    r1 = ev('<a/> => p("x");', "<a/>", file="one.xml")
    r2 = ev('<a/> => p("x");\n<a/> => q("y");', "<a/>", file="two.xml")
    store = merge_facts([r1, r2])
    assert len(store) == 2
    assert len(store.lookup("p", 1)) == 1


def test_merge_is_idempotent_and_order_insensitive():
    r1 = ev('<a/> => p("1");\n<a/> => p("2");', "<a/>", file="one.xml")
    r2 = ev('<a/> => p("2");\n<a/> => p("3");', "<a/>", file="two.xml")
    t1 = [f.term for f in merge_facts([r1, r2])]
    t2 = [f.term for f in merge_facts([r2, r1, r2])]
    assert t1 == t2


def test_solve_against_facts():
    store = merge_facts([ev('<a/> => head("Smith","CS");', "<a/>")])
    sols = solve(Functor("head", (Var("P"), Str("CS"))), Bindings(), store,
                 NO_BUILTINS)
    assert [s["P"] for s in sols] == [SVal("Smith")]
    assert solve(Functor("head", (Var("P"), Str("EE"))), Bindings(), store,
                 NO_BUILTINS) == []


def test_solve_unknown_predicate_raises():
    store = merge_facts([ev('<a/> => head("Smith","CS");', "<a/>")])
    with pytest.raises(UnknownPredicate):
        solve(Functor("haed", (Var("P"), Var("X"))), Bindings(), store,
              NO_BUILTINS)
    # as in Prolog, the same name at another arity is another predicate
    with pytest.raises(UnknownPredicate):
        solve(Functor("head", (Var("P"),)), Bindings(), store, NO_BUILTINS)


def test_non_ascii_names_in_rules_match_non_ascii_elements():
    result = ev('<élève nom=$N/> => p($N);', '<r><élève nom="Zoé"/></r>')
    assert [f.term for f in result.facts] == [Functor("p", (Str("Zoé"),))]


def test_unknown_predicate_reported_once_as_diagnostic():
    rules = ('<a/> ? nosuch($SourceLine) / <li> missing </li> ;\n'
             '<b/> ? nosuch($SourceLine) / <li> missing </li> ;\n'
             '<a/> => head("Smith","CS");\n'
             '<b/> ? head($SourceLine) / <li> no head </li> ;')
    result = ev(rules, "<root><a/><b/></root>")
    store = merge_facts([result])
    msgs, diags = resolve_tests(list(result.tests), store, NO_BUILTINS)
    assert msgs == []
    assert len(diags) == 2
    assert "nosuch/1" in diags[0]
    assert "head/1" in diags[1]


def test_if_present_emits_one_message_per_solution():
    rules = ('<a/> => pub("T","p1");\n<a/> => pub("T","p2");\n'
             '<a/> ? pub("T",$O) -> <li> found <$O> </li> ;')
    result = ev(rules, "<a/>")
    store = merge_facts([result])
    msgs, _ = resolve_tests(list(result.tests), store, NO_BUILTINS)
    assert sorted(m.text for m in msgs) == ["found p1", "found p2"]


def test_if_absent_emits_single_message():
    rules = '<a/> ? pub("T",$O) / <li> nothing about T </li> ;'
    result = ev(rules + '\n<b/> => pub("x","y");', "<root><a/><b/></root>")
    store = merge_facts([result])
    msgs, _ = resolve_tests(list(result.tests), store, NO_BUILTINS)
    assert [m.text for m in msgs] == ["nothing about T"]
    assert msgs[0].pos.line == 1


def test_message_reports_rule_position_data():
    rules = '<a/> ? q("z") / <li> warn line <$SourceLine> </li> ;'
    result = ev(rules + '\n<b/> => q("other");', "<root>\n<a/>\n<b/></root>",
                file="f.xml")
    store = merge_facts([result])
    msgs, _ = resolve_tests(list(result.tests), store, NO_BUILTINS)
    assert msgs[0].pos.file == "f.xml"
    assert msgs[0].pos.line == 2
    assert msgs[0].text == "warn line 2"


# -- invariance properties -----------------------------------------------------

@given(st.randoms())
@settings(max_examples=30, deadline=None)
def test_fact_set_invariant_under_env_rule_permutation(rng):
    rules = parse_rules(MINI_RULES, "r.rules")
    doc = parse_xml(MINI_DOC.encode(), "doc.xml")
    baseline = evaluate_file(doc, rules, "doc.xml")
    shuffled = list(rules.rules)
    rng.shuffle(shuffled)
    # no two rules in MINI_RULES assign the same variable at one node,
    # so order must not matter
    permuted = RuleSet(tuple(
        Rule(r.index, r.pattern, r.conditions, r.body, r.skipped, r.pos)
        for r in shuffled), rules.source_hash)
    result = evaluate_file(doc, permuted, "doc.xml")
    assert sorted(f.term for f in result.facts) == \
        sorted(f.term for f in baseline.facts)
    assert sorted((t.rule_index, t.pos.line) for t in result.tests) == \
        sorted((t.rule_index, t.pos.line) for t in baseline.tests)


def test_per_file_results_are_independent():
    r_both = [ev(MINI_RULES, MINI_DOC, file="a.xml"),
              ev(MINI_RULES, MINI_DOC.replace("Zoe", "Ada"), file="b.xml")]
    alone = ev(MINI_RULES, MINI_DOC, file="a.xml")
    assert r_both[0] == alone


# -- cache round-trip -----------------------------------------------------------

def mini_ruleset():
    return parse_rules(MINI_RULES, "r.rules")


def test_cache_round_trip_is_bit_exact():
    result = ev(MINI_RULES, MINI_DOC)
    blob = serialize_pass1(result)
    parsed = parse_pass1(blob, "doc.xml", mini_ruleset())
    assert serialize_pass1(parsed) == blob
    # fact origins are diagnostic-only and not serialized
    assert [f.term for f in parsed.facts] == [f.term for f in result.facts]
    assert parsed.tests == result.tests
    assert parsed.input_digest == result.input_digest
    assert parsed.rules_digest == result.rules_digest


def test_cached_tests_resolve_identically():
    result = ev(MINI_RULES, MINI_DOC)
    parsed = parse_pass1(serialize_pass1(result), "doc.xml", mini_ruleset())
    store = merge_facts([result])
    fresh = resolve_tests(list(result.tests), store, mini_builtins())
    cached = resolve_tests(list(parsed.tests), merge_facts([parsed]),
                           mini_builtins())
    assert fresh == cached


def test_cache_preserves_diagnostics():
    rules = '<a/> => x := "1";\n<a/> => x := "2";'
    result = ev(rules, "<a/>")
    assert result.diagnostics
    parsed = parse_pass1(serialize_pass1(result), "doc.xml",
                         parse_rules(rules, "r.rules"))
    assert parsed.diagnostics == result.diagnostics


def test_cache_rejects_corrupt_input():
    with pytest.raises(ValueError):
        parse_pass1("garbage\n", "doc.xml", mini_ruleset())
    with pytest.raises(ValueError):
        parse_pass1("#input x\n#rules y\nnot a fact\n", "doc.xml",
                    mini_ruleset())


def test_cache_rejects_every_truncation():
    result = ev(MINI_RULES, MINI_DOC)
    assert result.facts and result.tests
    blob = serialize_pass1(result).rstrip()
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            parse_pass1(blob[:cut], "doc.xml", mini_ruleset())


def _mutated_entry(mutate):
    entry = json.loads(serialize_pass1(ev(MINI_RULES, MINI_DOC)))
    mutate(entry)
    return json.dumps(entry)


# the CLI tests cover a bare format, rule 99, an environment rule and the
# older text format end to end
@pytest.mark.parametrize("text", [
    _mutated_entry(lambda e: e["tests"][0].__setitem__(0, -1)),
    _mutated_entry(lambda e: e["tests"][0].__setitem__(0, True)),
    _mutated_entry(lambda e: e["tests"][0].__setitem__(1, "3")),
    _mutated_entry(lambda e: e["tests"][0][2].__setitem__("P", 7)),
    _mutated_entry(lambda e: e["facts"].append("personne")),
    _mutated_entry(lambda e: e["facts"].append(["personne", 1])),
    _mutated_entry(lambda e: e.__setitem__("rules", "0" * 64)),
    _mutated_entry(lambda e: e.__setitem__("format", 1)),
    _mutated_entry(lambda e: e.pop("diags")),
    "[]",
])
def test_cache_rejects_inconsistent_entries(text):
    with pytest.raises(ValueError):
        parse_pass1(text, "doc.xml", mini_ruleset())
