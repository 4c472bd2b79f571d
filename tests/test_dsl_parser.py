import pytest

from semlint.dsl_parser import (MAX_NESTING, LexError, ParseError,
                                parse_rule_texts, parse_rules, tokenize)
from semlint.rule_ast import (Assign, Contains, EnvRule, Eq, PAnon, PElem,
                              PEmptyElem, PText, PVar, Polarity, TestRule)
from semlint.terms import Functor, Var


def kinds(text):
    return [t.kind for t in tokenize(text, "r.rules")][:-1]  # drop EOF


def test_tokenize_smallest_env_action():
    toks = tokenize('x := "a";', "r.rules")
    assert [(t.kind, t.lexeme) for t in toks[:-1]] == [
        ("NAME", "x"), (":=", ":="), ("STRING", "a"), (";", ";")]


def test_tokenize_test_prefix():
    toks = tokenize("? personne1($F,$N,$Proj) /", "r.rules")
    assert [(t.kind, t.lexeme) for t in toks[:-1]] == [
        ("?", "?"), ("NAME", "personne1"), ("(", "("),
        ("$", "$"), ("NAME", "F"), (",", ","),
        ("$", "$"), ("NAME", "N"), (",", ","),
        ("$", "$"), ("NAME", "Proj"), (")", ")"), ("/", "/")]


def test_tokenize_skip_marker():
    toks = tokenize('<* <a><$_></a> => x := "1";', "r.rules")
    assert toks[0].kind == "<*"
    assert kinds('<* <a><$_></a> => x := "1";') == [
        "<*", "<", "NAME", ">", "<$", "NAME", ">", "</", "NAME", ">",
        "=>", "NAME", ":=", "STRING", ";"]


def test_tokenize_text_runs_in_pattern_context():
    toks = tokenize("<li> Warning: <$P> line <$SourceLine> </li>", "r")
    texts = [t.lexeme for t in toks if t.kind == "TEXT"]
    assert texts == ["Warning:", "line"]


def test_tokenize_non_ascii_names_stop_before_arrow():
    toks = tokenize("? été($X)->", "r.rules")
    assert [(t.kind, t.lexeme) for t in toks[:-1]] == [
        ("?", "?"), ("NAME", "été"), ("(", "("), ("$", "$"),
        ("NAME", "X"), (")", ")"), ("->", "->")]
    assert kinds("a-b.c->") == ["NAME", "->"]


def test_tokenize_unterminated_string():
    with pytest.raises(LexError):
        tokenize('x := "oops', "r.rules")


def test_tokenize_string_escapes():
    toks = tokenize(r'x := "a\"b\\c";', "r.rules")
    assert toks[2].lexeme == 'a"b\\c'


def test_tokenize_positions():
    toks = tokenize('<a>\n<$X>\n</a> => x := "1";', "r.rules")
    assert toks[0].pos.line == 1
    assert [t.pos.line for t in toks if t.kind == "<$"] == [2]
    assert [t.pos.line for t in toks if t.kind == "=>"] == [3]


def test_parse_head_rule_from_department_example():
    rs = parse_rules("<head><$P></head> & dept=$X => head($P,$X);", "r")
    rule = rs.rules[0]
    assert rule.pattern == PElem("head", (), (PVar("P"),))
    assert rule.conditions == (Eq("dept", Var("X")),)
    assert rule.body == EnvRule(
        (), (Functor("head", (Var("P"), Var("X"))),))
    assert not rule.skipped


def test_action_variables_are_checked_in_the_order_written():
    # assignments and assertions are split after the check, so the first
    # unbound variable of the rule as written is the one named
    for actions, name in (("p($A) & x := $B", "A"), ("x := $B & p($A)", "B")):
        with pytest.raises(ParseError) as exc:
            parse_rules(f"<a/>\n=> {actions};", "r.rules")
        assert str(exc.value) == (f"r.rules:1: variable ${name} is not bound "
                                  f"by the rule's pattern or conditions")
    rule = parse_rules('<a v=$V/> => p($V) & x := $V & q("k");', "r").rules[0]
    assert rule.body == EnvRule((Assign("x", Var("V")),), (
        Functor("p", (Var("V"),)), Functor("q", ("k",))))


def test_parse_appendix_ruleset_counts(raweb_rules_text):
    rs = parse_rules(raweb_rules_text, "raweb.rules")
    env = [r for r in rs.rules if isinstance(r.body, EnvRule)]
    tests = [r for r in rs.rules if isinstance(r.body, TestRule)]
    assert len(rs.rules) == 11
    assert len(env) == 7
    assert len(tests) == 4
    assert [r.index for r in rs.rules] == list(range(11))


def test_parse_close_tag_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_rules('<a><$_></b> => x := "1";', "r")
    assert "does not match" in str(exc.value)


def test_parse_skipped_rule_marked():
    rs = parse_rules('<* <a><$_></a> => x := "1";\n'
                     '<b><$_></b> => y := "2";', "r")
    assert [r.skipped for r in rs.rules] == [True, False]
    assert rs.rules[1].index == 1


def test_parse_empty_element_and_anon_attr():
    rs = parse_rules('<a x=$_ y=$V/> => f($V);', "r")
    pattern = rs.rules[0].pattern
    assert isinstance(pattern, PEmptyElem)
    assert pattern.attrs[0].value is None
    assert pattern.attrs[1].value == Var("V")


def test_parse_test_rule_polarities():
    rs = parse_rules("<a><$_></a> ? p($SourceLine) / q();\n"
                     "<b><$_></b> ? r() -> s();", "r")
    t0 = rs.rules[0].body
    t1 = rs.rules[1].body
    assert t0.polarity is Polarity.IF_ABSENT
    assert t1.polarity is Polarity.IF_PRESENT
    assert t0.goal == Functor("p", (Var("SourceLine"),))
    assert t0.consequence == Functor("q", ())


def test_parse_contains_condition():
    rs = parse_rules("<citation><$A></citation>\n"
                     "& $A contains <title><$T></title>\n"
                     "=> title := $T;", "r")
    cond = rs.rules[0].conditions[0]
    assert isinstance(cond, Contains)
    assert cond.var == "A"
    assert cond.pattern == PElem("title", (), (PVar("T"),))
    assert rs.rules[0].body == EnvRule((Assign("title", Var("T")),), ())


# each at the line of the token it names, or of the rule for its goal
@pytest.mark.parametrize("text, where", [
    ('<a/> => x := "1";\n<b/>\n? $X / "m";',
     "r.rules:2: test goal must be a predicate term"),
    ('<a/>\n? p()\n=> "m";',
     "r.rules:3: expected '/' or '->' after test goal"),
    ('<a/>\n& x = "1"\n;',
     "r.rules:3: expected '=>' or '?' after rule pattern"),
    ('<a><$A></a>\n& $A\nhas <b/> => x := "1";',
     "r.rules:3: expected 'contains', found 'has'"),
    ('<a/> =>\nx := "1" &\n"s";',
     "r.rules:3: assertion must be a predicate term"),
], ids=["goal-not-a-term", "no-polarity", "no-body", "not-contains",
        "assertion-not-a-term"])
def test_a_malformed_rule_body_is_reported_at_its_line(text, where):
    with pytest.raises(ParseError) as exc:
        parse_rules(text, "r.rules")
    assert str(exc.value) == where


def test_contains_var_must_come_from_pattern():
    with pytest.raises(ParseError):
        parse_rules('<a><$_></a> & $B contains <t><$T></t> => x := "1";',
                    "r")


def test_rule_head_cannot_be_bare_variable():
    for text in ('<$X> => y := "1";', '<$X> => p($X);', '<$_> => p("x");'):
        with pytest.raises(ParseError, match="rule head must be"):
            parse_rules(text, "r")


def test_unbound_variable_in_action_rejected():
    with pytest.raises(ParseError) as exc:
        parse_rules("<a><$_></a> => f($Nope);", "r")
    assert "Nope" in str(exc.value)


def test_fresh_goal_variables_usable_in_consequence():
    rs = parse_rules("<a url=$U><$_></a>\n"
                     "? testurl($U,$A1,$A2) -> <li><$A1><$A2></li>;", "r")
    assert isinstance(rs.rules[0].body, TestRule)


def test_predefined_variables_allowed():
    rs = parse_rules("<a><$_></a> => seen($SourceFile,$SourceLine);", "r")
    assert isinstance(rs.rules[0].body, EnvRule)


def test_trailing_garbage_rejected():
    with pytest.raises((ParseError, LexError)):
        parse_rules('<a><$_></a> => x := "1"; stray', "r")


def test_duplicate_pattern_attribute_rejected():
    with pytest.raises(ParseError):
        parse_rules('<a x=$V x="1"/> => f($V);', "r")


def test_text_rule_head_accepted():
    rs = parse_rules('"hello" => x := "1";', "r")
    assert rs.rules[0].pattern == PText("hello")


def test_pattern_text_children():
    rs = parse_rules("<li> Warning <$P> done </li> ? p($P) / q();", "r")
    pattern = rs.rules[0].pattern
    assert pattern.children == (PText("Warning"), PVar("P"), PText("done"))


def test_anon_element_variable():
    rs = parse_rules("<a><$_><$X></a> => f($X);", "r")
    assert rs.rules[0].pattern.children == (PAnon(), PVar("X"))


def test_multi_file_ruleset_single_namespace():
    rs = parse_rule_texts([
        ('<a><$_></a> => x := "1";', "one.rules"),
        ('<b><$_></b> => y := "2";', "two.rules"),
    ])
    assert [r.index for r in rs.rules] == [0, 1]
    assert [r.pos.file for r in rs.rules] == ["one.rules", "two.rules"]


def test_rule_positions_point_at_first_token(raweb_rules_text):
    rs = parse_rules(raweb_rules_text, "raweb.rules")
    lines = raweb_rules_text.splitlines()
    for rule in rs.rules:
        assert lines[rule.pos.line - 1].lstrip().startswith("<")


def nested_element(depth):
    # one open tag per line, so the level-n tag is on line n
    return ("<a>\n" * depth + "</a>" * depth + ' => p("x");\n')


def nested_term(depth):
    # the assertion is level 1, on line 2; level n is on line n + 1
    return ("<a/> =>\n" + "f(\n" * (depth - 1) + '"x"' + ")" * (depth - 1)
            + ";\n")


@pytest.mark.parametrize("nested", [nested_element, nested_term],
                         ids=["element", "term"])
def test_nesting_deeper_than_the_limit_is_a_parse_error(nested):
    assert len(parse_rules(nested(MAX_NESTING), "r.rules").rules) == 1
    with pytest.raises(ParseError) as err:
        parse_rules(nested(600), "r.rules")
    line = MAX_NESTING + (1 if nested is nested_element else 2)
    assert str(err.value) == (f"r.rules:{line}: nested deeper than "
                              f"{MAX_NESTING} levels")


def test_if_absent_template_cannot_use_what_only_its_goal_binds():
    # the message is given when p($Y,$Z) has no solution: $Z is never bound
    text = ('<a x=$X/> => p($X,"k");\n'
            '<b y=$Y/> ? p($Y,$Z) / <li> <$Z> </li>;\n')
    with pytest.raises(ParseError) as exc:
        parse_rules(text, "r.rules")
    assert str(exc.value) == ("r.rules:2: variable $Z is not bound by the "
                              "rule's pattern or conditions")
    # an if-present message is given per solution, which binds $Z
    rs = parse_rules(text.replace(" / ", " -> "), "r.rules")
    assert rs.rules[1].body.polarity is Polarity.IF_PRESENT
    # what the pattern binds stays usable in an if-absent message
    parse_rules(text.replace("<$Z> </li>", "<$Y> </li>"), "r.rules")


# in a term, $_ is a variable like any other, which a goal or a condition
# binds; <$_> and name=$_ still bind nothing
@pytest.mark.parametrize("binder", ["? p($X)", "? p($_)", "& e = $_ ? p($X)"])
@pytest.mark.parametrize("polarity", ["/", "->"])
@pytest.mark.parametrize("template", [
    "<li> <$_> </li>", "<li y=$_> k </li>", "<li y=$_/>",
    "<li> <b> k <$_> </b> </li>", "<li> <b z=$_/> </li>"])
def test_a_message_template_cannot_show_anon(binder, polarity, template):
    # $_ binds nothing, so rendering the message could only fail
    text = ('<a x=$X/> => p($X);\n'
            f'<a x=$X/> {binder} {polarity} {template};\n')
    with pytest.raises(ParseError) as exc:
        parse_rules(text, "r.rules")
    assert str(exc.value) == ("r.rules:2: variable $_ is not bound by the "
                              "rule's pattern or conditions")
    # the same template with a bound variable loads
    parse_rules(text.replace("$_", "$X"), "r.rules")
