import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_entry
from semlint.builtins import HttpProber, make_registry
from semlint.dsl_parser import ParseError, parse_rule_texts, parse_rules
from semlint.engine import (DelayedTest, FactStore, PassOneResult,
                            UnknownPredicate, evaluate_file, merge_facts,
                            parse_pass1, resolve_tests, serialize_pass1,
                            solve)
from semlint.rule_ast import Polarity, Rule, RuleSet
from semlint.terms import Functor, Var
from semlint.xml_frontend import SourcePos, parse_xml

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
        want = tuple(b.get(a.name) if isinstance(a, Var) else a
                     for a in args)
        for fact in store.lookup("personne", 3):
            if fact.args == want:
                return [b]
        return []
    return {("personne1", 3): personne1}


def test_mini_report_end_to_end():
    result = ev(MINI_RULES, MINI_DOC)
    assert list(result.facts) == [
        Functor("personne", ("Anne", "Martin", "acacia"))]
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
    assert list(result.facts) == [
        Functor("seen", ("in-a",))]


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
    assert list(result.facts) == [
        Functor("saw", ("outer",))]


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
    assert list(result2.facts) == [
        Functor("seen", ("second",))]


def test_predefined_source_bindings():
    rules = "<a/> => at($SourceFile,$SourceLine);"
    result = ev(rules, "<root>\n<a/>\n</root>", file="in.xml")
    assert list(result.facts) == [
        Functor("at", ("in.xml", "2"))]


def test_skipped_rules_do_not_fire():
    rules = '<* <a/> => f();\n<a/> => g();'
    result = ev(rules, "<a/>")
    assert [f.name for f in result.facts] == ["g"]


def test_contains_condition_binds_first_solution():
    rules = """\
<citation> <$A> </citation>
& $A contains <title> <$T> </title>
  => title($T);
"""
    xml = ("<citation><block><title>First</title></block>"
           "<title>Second</title></citation>")
    result = ev(rules, xml)
    assert list(result.facts) == [
        Functor("title", ("First",))]


def test_contains_on_a_string_fails_with_a_diagnostic():
    rules = ('<a x=$X/> & $X contains <b/> => p("y");\n'
             '<a x=$X/> => q($X);\n')
    result = ev(rules, '<r>\n<a x="1"/></r>')
    assert list(result.facts) == [
        Functor("q", ("1",))]
    assert result.diagnostics == (
        "doc.xml:2: $X holds a string, not a node: the contains condition "
        "of rule 0 fails",)


def test_node_values_project_to_strings_in_facts():
    rules = "<a> <$X> </a> => got($X);"
    result = ev(rules, "<a><b> spaced  <c>text</c> </b></a>")
    assert result.facts[0] == Functor("got", ("spaced text",))


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
    s1 = merge_facts([r1, r2])
    s2 = merge_facts([r2, r1, r2])
    # a bucket keeps insertion order, so only its contents are compared
    assert len(s1) == len(s2) == 3
    assert (set(s1.lookup("p", 1)) == set(s2.lookup("p", 1))
            == {Functor("p", (v,)) for v in "123"})


def test_solve_against_facts():
    store = merge_facts([ev('<a/> => head("Smith","CS");', "<a/>")])
    sols = solve(Functor("head", (Var("P"), "CS")), {}, store,
                 NO_BUILTINS)
    assert [s["P"] for s in sols] == ["Smith"]
    assert solve(Functor("head", (Var("P"), "EE")), {}, store,
                 NO_BUILTINS) == []


def test_solve_unknown_predicate_raises():
    store = merge_facts([ev('<a/> => head("Smith","CS");', "<a/>")])
    with pytest.raises(UnknownPredicate):
        solve(Functor("haed", (Var("P"), Var("X"))), {}, store,
              NO_BUILTINS)
    # as in Prolog, the same name at another arity is another predicate
    with pytest.raises(UnknownPredicate):
        solve(Functor("head", (Var("P"),)), {}, store, NO_BUILTINS)


def test_non_ascii_names_in_rules_match_non_ascii_elements():
    result = ev('<élève nom=$N/> => p($N);', '<r><élève nom="Zoé"/></r>')
    assert list(result.facts) == [Functor("p", ("Zoé",))]


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


def test_every_variable_of_a_message_is_bound_when_it_is_rendered():
    # a solution binds each variable of its goal: a fact is ground, and a
    # builtin binds its outputs; one whose input holds a variable fails to
    # load
    rules = ('<a x=$X/> => q(f($X), "k");\n'
             '<a x=$X/> ? q(f($Y), $K) -> <li> <$Y> <$K> </li> ;\n')
    result = ev(rules, '<a x="1"/>')
    msgs, diags = resolve_tests(list(result.tests), merge_facts([result]),
                                make_registry(HttpProber(), offline=True))
    assert [m.text for m in msgs] == ["1 k"]
    assert diags == []
    with pytest.raises(ParseError, match=r":3: sameyear: argument f\(\$Z\)"):
        parse_rules(rules + '<a x=$X/> ? sameyear(f($Z), f($Z)) -> '
                            '<li> <$Z> </li> ;\n', "r.rules")


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
        for r in shuffled))
    result = evaluate_file(doc, permuted, "doc.xml")
    assert sorted(result.facts) == \
        sorted(baseline.facts)
    assert sorted((t.rule_index, t.pos.line) for t in result.tests) == \
        sorted((t.rule_index, t.pos.line) for t in baseline.tests)


def test_resolving_tests_leaves_their_bindings_unchanged(seeded_corpus):
    # bindings are plain dicts: pass 2 must extend copies, never change the
    # bindings that a delayed test captured in pass 1
    ruleset = parse_rule_texts([(Path(path).read_text(encoding="utf-8"), path)
                                for path in seeded_corpus["rules"]])
    results = [evaluate_file(parse_xml(Path(path).read_bytes(), path),
                             ruleset, path)
               for path in seeded_corpus["inputs"]]
    tests = [dt for result in results for dt in result.tests]
    before = [dict(dt.captured) for dt in tests]
    messages, diagnostics = resolve_tests(
        tests, merge_facts(results), make_registry(HttpProber(timeout=5.0)))
    assert len(messages) == 4 and diagnostics == []
    assert [dt.captured for dt in tests] == before


def test_per_file_results_are_independent():
    r_both = [ev(MINI_RULES, MINI_DOC, file="a.xml"),
              ev(MINI_RULES, MINI_DOC.replace("Zoe", "Ada"), file="b.xml")]
    alone = ev(MINI_RULES, MINI_DOC, file="a.xml")
    assert r_both[0] == alone


# -- cache round-trip -----------------------------------------------------------

def mini_ruleset():
    return parse_rules(MINI_RULES, "r.rules")


def decode(text, rules=None):
    return parse_pass1(text, "doc.xml", rules or mini_ruleset())


# the positions of an entry's fields, and of a cached test's
STRINGS, FACTS, TESTS, DIAGS = 0, 1, 2, 3
RULE, STEP, ROW = 0, 1, 2


def test_cache_round_trip_is_bit_exact():
    # the CLI checks that an entry was computed from the input as read now
    # (test_cli: an index digest that differs from the input's is a miss)
    result = ev(MINI_RULES, MINI_DOC)
    blob = serialize_pass1(result)
    parsed = decode(blob)
    assert serialize_pass1(parsed) == blob
    assert parsed.facts == result.facts
    assert parsed.tests == result.tests


def test_an_entry_stores_each_distinct_string_once():
    # in order of first use: the fact's name and values, then the rows'
    entry = json.loads(serialize_pass1(ev(MINI_RULES, MINI_DOC)))
    assert entry[STRINGS] == ["personne", "Anne", "Martin", "acacia",
                              "Unknown", "Zoe"]
    assert entry[FACTS] == [[0, 1, 2, 3]]
    assert [row for _, _, row in entry[TESTS]] == [[2, 1, 3], [4, 5, 3]]


def test_a_cached_test_is_a_value_row_in_captured_order():
    rules = mini_ruleset()
    result = ev(MINI_RULES, MINI_DOC)
    entry = json.loads(serialize_pass1(result))
    tests = entry[TESTS]
    assert tests and len(tests) == len(result.tests)
    # a test stores its line as the step from the test before it
    assert [test[STEP] for test in tests] == [6, 1]
    line = 0
    for (index, step, row), dt in zip(tests, result.tests):
        line += step
        assert (index, line) == (dt.rule_index, dt.pos.line)
        assert [entry[STRINGS][i] for i in row] == [
            dt.captured[name] for name in rules.rules[index].body.captured]


def test_a_name_only_the_goal_binds_has_no_cell_in_its_row():
    rules_text = ('<a x=$X/> => p($X);\n'
                  '<b y=$Y/> ? p($Z) -> <li> <$Y> <$Z> </li>;\n')
    rules = parse_rules(rules_text, "r.rules")
    result = ev(rules_text, '<r><a x="1"/><b y="2"/></r>')
    (dt,) = result.tests
    assert rules.rules[1].body.captured == ("Y",) and "Z" not in dt.captured
    blob = serialize_pass1(result)
    (test,) = json.loads(blob)[TESTS]
    assert len(test[ROW]) == 1 and None not in test[ROW]
    assert decode(blob, rules).tests == result.tests


STEP_RULES = '<b x=$X/> ? p($X) -> <li> <$X> </li>;\n'


def test_tests_on_one_line_store_a_step_of_0():
    rules = parse_rules(STEP_RULES, "r.rules")
    result = ev(STEP_RULES, '<r>\n<b x="1"/><b x="2"/><b x="3"/>\n</r>')
    blob = serialize_pass1(result)
    assert [test[STEP] for test in json.loads(blob)[TESTS]] == [2, 0, 0]
    decoded = decode(blob, rules)
    assert [dt.pos.line for dt in decoded.tests] == [2, 2, 2]
    assert decoded.tests == result.tests


def _tests_on_lines(rules, lines):
    body = rules.rules[0].body
    return PassOneResult((), tuple(DelayedTest(
        0, body, {"SourceFile": "doc.xml", "SourceLine": str(line),
                  "X": "v"}, SourcePos("doc.xml", line))
        for line in lines), ())


def test_a_negative_step_decodes_to_the_line_it_sums_to():
    rules = parse_rules(STEP_RULES, "r.rules")
    result = _tests_on_lines(rules, [9, 4, 12])
    blob = serialize_pass1(result)
    assert [test[STEP] for test in json.loads(blob)[TESTS]] == [9, -5, 8]
    assert decode(blob, rules) == result
    # a step written by hand sums the same way
    entry = json.loads(blob)
    entry[TESTS][1][STEP] = -8
    assert [dt.pos.line for dt in decode(json.dumps(entry), rules).tests] \
        == [9, 1, 9]


# a differential test of the entry codec against the one it replaced
# (legacy_entry): values repeat, and some equal a predicate or functor name
CODEC_RULES = """\
<a x=$X y=$Y/> => p($X) & q(f($Y), g());
<a x=$X y=$Y/> ? q($X, $Z) / <li> <$X> <$Y> <$SourceFile> </li>;
<b x=$X/> & e = $W ? p($X) -> <li> <$W> line <$SourceLine> </li>;
<b x=$X/> ? p($X) -> <li> k </li>;
"""
NAMES = ["p", "q", "f", "g", "é"]
VALUES = st.one_of(st.sampled_from(["", "0", "12", "-1", "1.5", "1e3", "p",
                                    "f", "Zoë", "名前", "a\"b\\"]),
                   st.text(max_size=4))
TERMS = st.recursive(VALUES, lambda args: st.builds(
    Functor, st.sampled_from(NAMES), st.lists(args, max_size=3).map(tuple)),
    max_leaves=8)


@st.composite
def pass_one_results(draw):
    rules = parse_rules(CODEC_RULES, "r.rules")
    facts = draw(st.lists(st.builds(
        Functor, st.sampled_from(NAMES),
        st.lists(TERMS, max_size=3).map(tuple)), max_size=4))
    tests = []
    for index in draw(st.lists(st.sampled_from([1, 2, 3]), max_size=4)):
        line = draw(st.integers(1, 50))
        position = {"SourceFile": "doc.xml", "SourceLine": str(line)}
        rule = rules.rules[index]
        # pass 1 binds every name of a row, and the position's names
        captured = {**{name: draw(TERMS) for name in rule.body.captured},
                    **position}
        tests.append(DelayedTest(index, rule.body, captured,
                                 SourcePos("doc.xml", line)))
    diagnostics = draw(st.lists(VALUES, max_size=2))
    return rules, PassOneResult(tuple(facts), tuple(tests),
                                tuple(diagnostics))


def _strings(result):
    """Each string of the result's facts and captured values, names
    included, but the position names'."""
    stack = list(result.facts) + [
        value for dt in result.tests for name, value in dt.captured.items()
        if name not in ("SourceFile", "SourceLine")]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            yield t
        else:
            yield t.name
            stack.extend(t.args)


@given(pass_one_results())
@settings(max_examples=300, deadline=None)
def test_the_entry_codec_agrees_with_the_legacy_one(drawn):
    rules, result = drawn
    blob = serialize_pass1(result)
    decoded = parse_pass1(blob, "doc.xml", rules)
    assert decoded == result
    assert serialize_pass1(decoded) == blob
    assert decoded == legacy_entry.parse_pass1(
        legacy_entry.serialize_pass1(result, rules), "doc.xml", rules)
    # equal strings are one object
    shared = {}
    for s in _strings(decoded):
        assert shared.setdefault(s, s) is s


def test_cached_tests_resolve_identically():
    result = ev(MINI_RULES, MINI_DOC)
    parsed = decode(serialize_pass1(result))
    store = merge_facts([result])
    fresh = resolve_tests(list(result.tests), store, mini_builtins())
    cached = resolve_tests(list(parsed.tests), merge_facts([parsed]),
                           mini_builtins())
    assert fresh == cached


def test_cache_preserves_diagnostics():
    rules = '<a/> => x := "1";\n<a/> => x := "2";'
    result = ev(rules, "<a/>")
    assert result.diagnostics
    ruleset = parse_rules(rules, "r.rules")
    parsed = decode(serialize_pass1(result), ruleset)
    assert parsed.diagnostics == result.diagnostics


def test_cache_rejects_corrupt_input():
    with pytest.raises(ValueError):
        decode("garbage\n")
    with pytest.raises(ValueError):
        decode("#input x\n#rules y\nnot a fact\n")


def test_cache_rejects_every_truncation():
    result = ev(MINI_RULES, MINI_DOC)
    assert result.facts and result.tests
    blob = serialize_pass1(result).rstrip()
    # cuts fall in the string table, the facts and the tests alike
    assert all(json.loads(blob)[:DIAGS])
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            decode(blob[:cut])


def _mutated_entry(mutate):
    entry = json.loads(serialize_pass1(ev(MINI_RULES, MINI_DOC)))
    mutate(entry)
    return json.dumps(entry)


def _legacy_entry():
    """The entry as the layout before the string table wrote it: [facts,
    tests, diagnostics], each value written out at each use."""
    return json.dumps(json.loads(legacy_entry.serialize_pass1(
        ev(MINI_RULES, MINI_DOC), mini_ruleset())))


def _earlier_layout(format):
    """The entry as an older layout wrote it: a dict that also held a
    format number and the input and rules digests, and a test's captured
    values by name."""
    rules = mini_ruleset()
    facts, tests, diags = json.loads(legacy_entry.serialize_pass1(
        ev(MINI_RULES, MINI_DOC), rules))
    by_name = []
    for index, line, row in tests:
        by_name.append([index, line,
                        dict(zip(rules.rules[index].body.captured, row))])
    rules_digest = hashlib.sha256(MINI_RULES.encode("utf-8")).hexdigest()
    return json.dumps({"format": format, "input": "0" * 64,
                       "rules": rules_digest, "facts": facts,
                       "tests": by_name, "diags": diags})


def _row_slot(entry, name):
    """The position of name's value in the row of the entry's first test."""
    return mini_ruleset().rules[entry[TESTS][0][RULE]].body.captured.index(
        name)


# the CLI tests cover a bare format, rule 99, an environment rule, the older
# text format, an entry of other input content, and a key of another
# format, interpreter or ruleset end to end
@pytest.mark.parametrize("text", [
    _mutated_entry(lambda e: e[TESTS][0].__setitem__(RULE, -1)),
    _mutated_entry(lambda e: e[TESTS][0].__setitem__(RULE, True)),
    # a step that is a string, a bool or a float
    _mutated_entry(lambda e: e[TESTS][0].__setitem__(STEP, "3")),
    _mutated_entry(lambda e: e[TESTS][1].__setitem__(STEP, True)),
    _mutated_entry(lambda e: e[TESTS][1].__setitem__(STEP, 1.0)),
    # a value written out instead of indexed
    _mutated_entry(lambda e: e[TESTS][0][ROW].__setitem__(
        _row_slot(e, "P"), "Anne")),
    # a row one value too long, and one too short
    _mutated_entry(lambda e: e[TESTS][0][ROW].append(0)),
    _mutated_entry(lambda e: e[TESTS][0][ROW].pop()),
    _mutated_entry(lambda e: e[TESTS][0].__setitem__(ROW, {"P": 5})),
    # a fact that is a string, one whose name is written out, and one with
    # an argument that is neither an index nor a compound
    _mutated_entry(lambda e: e[FACTS].append(0)),
    _mutated_entry(lambda e: e[FACTS].append(["personne", 1])),
    _mutated_entry(lambda e: e[FACTS].append([0, {}])),
    _mutated_entry(lambda e: e.append([])),
    _mutated_entry(lambda e: e.pop(DIAGS)),
    _mutated_entry(lambda e: e.pop(STRINGS)),
    # a bad index: a bool, a float, a negative one and one out of range, in
    # a fact's name, a fact's argument and a row
    _mutated_entry(lambda e: e[FACTS][0].__setitem__(0, False)),
    _mutated_entry(lambda e: e[TESTS][0][ROW].__setitem__(
        _row_slot(e, "P"), True)),
    _mutated_entry(lambda e: e[FACTS][0].__setitem__(1, 1.0)),
    _mutated_entry(lambda e: e[TESTS][0][ROW].__setitem__(
        _row_slot(e, "P"), 5.0)),
    _mutated_entry(lambda e: e[FACTS][0].__setitem__(1, -1)),
    _mutated_entry(lambda e: e[TESTS][0][ROW].__setitem__(
        _row_slot(e, "P"), -6)),
    _mutated_entry(lambda e: e[FACTS][0].__setitem__(
        0, len(e[STRINGS]))),
    _mutated_entry(lambda e: e[TESTS][0][ROW].__setitem__(
        _row_slot(e, "P"), len(e[STRINGS]))),
    # a string table that holds a non-string, and one that is not a list
    _mutated_entry(lambda e: e[STRINGS].__setitem__(1, 1)),
    _mutated_entry(lambda e: e[STRINGS].__setitem__(1, ["Anne"])),
    _mutated_entry(lambda e: e.__setitem__(STRINGS, {"0": "personne"})),
    "[]",
    _legacy_entry(),
    _earlier_layout(3),
    _earlier_layout(1),
])
def test_cache_rejects_inconsistent_entries(text):
    with pytest.raises(ValueError):
        decode(text)


def test_a_variable_bound_twice_compares_nodes_by_content():
    # equal subtrees on other lines are equal values: the line is no content
    rules = '<a> <$X> <$X> <$_> </a> => p("same");'
    for xml in ("<a><b>t</b><b>t</b><c/></a>",
                "<a>\n<b>t</b>\n<b>t</b>\n<c/>\n</a>"):
        assert ev(rules, xml).facts == (Functor("p", ("same",)),)
    assert ev(rules, "<a>\n<b>t</b>\n<b>u</b>\n<c/>\n</a>").facts == ()
    assert ev(rules, '<a>\n<b>t</b>\n<b k="v">t</b>\n</a>').facts == ()
