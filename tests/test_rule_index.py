"""Pass 1 with rules indexed by their head against a scan of every rule.

The reference below tries every rule at every node, the way evaluate_file
did before rules were grouped by the element name of their head.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from semlint import engine
from semlint.dsl_parser import parse_rules
from semlint.engine import (_capture_test, _eval_condition, _ground_term,
                            _ground_value, evaluate_file)
from semlint.matcher import match_node
from semlint.rule_ast import EnvRule
from semlint.xml_frontend import Element, SourcePos, Text, parse_xml


# -- reference: every live rule at every node ----------------------------------

def scan_evaluate(doc, rules, file):
    facts, tests, diagnostics = [], [], []

    def visit(node, env):
        seed = {"SourceFile": file, "SourceLine": str(node.pos.line)}
        applicable = []
        for rule in rules.rules:
            if rule.skipped:
                continue
            b = match_node(rule.pattern, node, seed)
            if b is None:
                continue
            for cond in rule.conditions:
                b = _eval_condition(cond, b, env)
                if b is None:
                    break
            if b is not None:
                applicable.append((rule, b))
        child_env = env
        assigned_by = {}
        for rule, b in applicable:
            if not isinstance(rule.body, EnvRule):
                tests.append(_capture_test(rule, b, node.pos))
                continue
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
        if isinstance(node, Element):
            for child in node.children:
                visit(child, child_env)

    visit(doc, {})
    return facts, tests, diagnostics


# -- random rule sets and documents --------------------------------------------

NAMES = ["a", "b", "c"]
# head kind -> (DSL head, binds $X)
HEADS = {
    "children": ("<{n}> <$X> </{n}>", True),
    "empty": ("<{n} x=$X/>", True),
    "attr": ('<{n} x="1"> <$_> </{n}>', False),
    "text": ('"t{i}"', False),
}


@st.composite
def rule_texts(draw):
    template, binds_x = HEADS[draw(st.sampled_from(sorted(HEADS)))]
    head = template.format(n=draw(st.sampled_from(NAMES)),
                           i=draw(st.integers(1, 2)))
    value = (st.sampled_from(['"v1"', '"v2"', "$X"]) if binds_x
             else st.sampled_from(['"v1"', '"v2"']))
    cond = draw(st.sampled_from(["", '& k = "v1"', '& m = "v2"']))
    body = draw(st.sampled_from(["assign", "assert", "test"]))
    if body == "assign":
        env_var = draw(st.sampled_from(["k", "m"]))
        text = f"=> {env_var} := {draw(value)}"
    elif body == "assert":
        text = f"=> f({draw(value)}, $SourceLine)"
    else:
        arrow = draw(st.sampled_from(["/", "->"]))
        text = (f"? g({draw(value)}) {arrow} "
                f"<li> at <$SourceLine> in <$SourceFile> </li>")
    skip = "<* " if draw(st.booleans()) else ""
    return f"{skip}{head} {cond} {text};\n"


@st.composite
def rulesets(draw):
    drawn = draw(st.lists(rule_texts(), min_size=1, max_size=8))
    return parse_rules("".join(drawn), "r.rules")


@st.composite
def trees(draw, depth=0):
    line = draw(st.integers(1, 50))
    if depth > 0 and draw(st.integers(0, 3)) == 0:
        return Text(draw(st.sampled_from(["t1", "t2", "other"])),
                    SourcePos("f.xml", line))
    attrs = draw(st.sampled_from([(), (("x", "1"),), (("x", "2"),)]))
    children = () if depth >= 3 else tuple(
        draw(st.lists(trees(depth + 1), max_size=3)))
    return Element(draw(st.sampled_from(NAMES + ["d"])), attrs, children,
                   SourcePos("f.xml", line))


@given(rulesets(), trees())
@settings(max_examples=300, deadline=None)
def test_indexed_pass1_matches_full_scan(rules, doc):
    facts, tests, diagnostics = scan_evaluate(doc, rules, "f.xml")
    result = evaluate_file(doc, rules, "f.xml")
    assert list(result.facts) == facts
    assert list(result.tests) == tests
    assert list(result.diagnostics) == diagnostics


def test_node_no_rule_head_names_is_never_matched(raweb_rules_text,
                                                  monkeypatch):
    rules = parse_rules(raweb_rules_text, "raweb.rules")
    doc = parse_xml(b"<report>\n<section n='1'><para>text <em>x</em></para>"
                    b"</section>\n<annex/></report>", "f.xml")
    calls = []

    def counting_match_node(p, n, b):
        calls.append(n)
        return match_node(p, n, b)
    monkeypatch.setattr(engine, "match_node", counting_match_node)
    result = evaluate_file(doc, rules, "f.xml")
    assert calls == []
    assert (result.facts, result.tests, result.diagnostics) == ((), (), ())
