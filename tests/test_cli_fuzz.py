"""Random rule files from the DSL grammar, run on random documents by cli.run.

Whatever the rules and the document, a run ends with exit code 0, 2 (a
rules, input or engine error), or 1 only under --fail-on-warnings; no
exception escapes and no traceback is printed.  No message is rendered
with an unbound variable.  A warm run repeats the cold run's output
exactly.  Each test row of a pack that a run writes holds one cell, never
null, per name of its rule's TestRule.captured.  Every value that either
pass binds is ground, which is what lets matcher.match_term match one way.

The generator mostly draws variables that are already bound, so that most
rule files pass validation and reach both passes; now and then it draws
any variable, which the parser may reject with a clean exit 2.  A term of
a goal or a condition sometimes holds $_.  A builtin goal mostly keeps its
modes (BUILTIN_MODES); one in twenty may break them, as a hole (a compound
input holding a variable that nothing binds, $F or $_, which a -> message
then shows) or an argument in the other mode, and then fails at load.  A
fact goal takes such a hole in half the draws, which its facts then fill.
So that pass 2 finds solutions, goal inputs are often drawn from what the
environment rules drawn before them assert, pub/2 and personne/3 included.
"""

import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from semlint import BUILTIN_MODES, SemlintError, engine
from semlint.builtins import OK, UrlProbeResult, make_registry
from semlint.cli import RunConfig, run
from semlint.dsl_parser import parse_rules
from semlint.engine import EngineError, evaluate_file, merge_facts, solve
from semlint.reporting import FORMATS
from semlint.terms import Functor, Var, is_ground
from semlint.xml_frontend import parse_xml
import cache_pack
from stub_prober import StubProber

ELEMENTS = ["a", "b", "c"]
ATTRS = ["x", "y"]
VARS = ["X", "Y", "Z"]
ENV_VARS = ["e", "f"]
STRINGS = ["", "0", "2002", "http://h/live", "http://h/dead", "Anne"]
# goals and their argument modes (i: bound, o: fresh): the builtins,
# predicates that rules assert, and one that is never asserted
GOALS = [("sameyear", "ii"), ("personne1", "iii"),
         ("pubbyotherproject", "iio"), ("testurl", "ioo"), ("p", "i"),
         ("q", "io"), ("r", "i")]
FACTS = [("p", 1), ("q", 2), ("pub", 2), ("personne", 3)]
# the asserted predicate whose arguments a goal's first inputs copy, and
# how many: pubbyotherproject looks for another project than a pub fact's
FEEDS = {"p": ("p", 1), "q": ("q", 1), "pubbyotherproject": ("pub", 1),
         "personne1": ("personne", 3)}
ROOTS = ["li", "list", "ul"]
TEXTS = ["w", "0", "http://h/live"]


def quoted(s):
    return '"' + s + '"'


@st.composite
def variable(draw, bound):
    """A bound variable; any variable one time in ten, or if none is bound."""
    if bound and draw(st.integers(0, 9)):
        return draw(st.sampled_from(sorted(bound)))
    return draw(st.sampled_from(VARS))


@st.composite
def term(draw, bound, depth=0, anon=False):
    """A term; if anon, one variable in four is $_."""
    kind = draw(st.sampled_from(["string", "var", "functor"] if depth < 2
                                else ["string", "var"]))
    if kind == "string":
        return quoted(draw(st.sampled_from(STRINGS)))
    if kind == "var":
        return "$" + ("_" if anon and draw(st.integers(0, 3)) == 0
                      else draw(variable(bound)))
    args = draw(st.lists(term(bound, depth + 1, anon), max_size=2))
    return f"f({', '.join(args)})"


@st.composite
def pattern(draw, binds, depth=0, child=False, values=None):
    """An XML-shaped pattern and a piece of XML that it matches.

    The variables the pattern binds are added to binds, and the value in
    the XML of each one an attribute binds to values, if given.  A head is an
    element; a contains pattern may also be a variable; a child may also be
    text."""
    kinds = ["element", "empty"]
    if depth:
        kinds += ["var", "anon"] + (["text"] if child else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("var", "anon"):
        name = "_"
        if kind == "var":
            name = draw(st.sampled_from(VARS))
            binds.add(name)
        return f"<${name}>", draw(document(depth=2))
    if kind == "text":
        text = draw(st.sampled_from(TEXTS))
        return text, text
    name = draw(st.sampled_from(ELEMENTS))
    attrs, instance_attrs = "", ""
    for attr in draw(st.lists(st.sampled_from(ATTRS), max_size=2,
                              unique=True)):
        value = draw(st.sampled_from(STRINGS))
        kind_of_value = draw(st.sampled_from(["var", "anon", "string"]))
        if kind_of_value == "var":
            var = draw(st.sampled_from(VARS))
            binds.add(var)
            if values is not None:
                values.setdefault(var, quoted(value))
            attrs += f" {attr}=${var}"
        elif kind_of_value == "anon":
            attrs += f" {attr}=$_"
        else:
            attrs += f" {attr}={quoted(value)}"
        instance_attrs += f" {attr}={quoted(value)}"
    if kind == "empty" or depth >= 2:
        return f"<{name}{attrs}/>", f"<{name}{instance_attrs}/>"
    children = draw(st.lists(pattern(binds, depth + 1, True, values),
                             max_size=3))
    if draw(st.booleans()):
        # the rest of the content, whatever it is
        children.append(("<$_>", "\n".join(draw(st.lists(
            document(depth=2), max_size=2)))))
    return (f"<{name}{attrs}> {' '.join(p for p, _ in children)} </{name}>",
            f"<{name}{instance_attrs}>" + "\n".join(i for _, i in children)
            + f"</{name}>")


@st.composite
def consequence(draw, bound):
    if draw(st.integers(0, 3)) == 0:
        return draw(term(bound))
    root = draw(st.sampled_from(ROOTS))
    if draw(st.booleans()):
        return f"<{root} x=${draw(variable(bound))}/>"
    parts = draw(st.lists(st.one_of(
        st.just("at"), st.builds(lambda v: f"<${v}>", variable(bound))),
        max_size=3))
    return f"<{root}> {' '.join(parts)} </{root}>"


@st.composite
def goal_input(draw, name, i, bound, asserted, strict):
    """Input i of a name goal, often an argument that a rule asserts; if
    strict, one that is ground when the goal runs: a string, a compound of
    strings or a bound variable."""
    pred, count = FEEDS.get(name, (None, 0))
    # sameyear and testurl may copy any asserted argument
    fed = ([args[i] for p, args in asserted if p == pred] if i < count else
           [a for _, args in asserted for a in args] if pred is None else [])
    if strict:
        # a variable in a written compound is never substituted
        fed = [a for a in fed if "$" not in a or a[1:] in bound]
    if fed and draw(st.integers(0, 3)) < 3:
        return draw(st.sampled_from(fed))
    if not strict:
        return draw(term(bound, anon=True))
    kind = draw(st.sampled_from(["string", "var", "functor"]))
    if kind == "var":
        return "$" + draw(st.sampled_from(sorted(bound)))
    strings = st.sampled_from(STRINGS).map(quoted)
    if kind == "string":
        return draw(strings)
    return f"f({', '.join(draw(st.lists(strings, max_size=2)))})"


@st.composite
def rule(draw, asserted=None):
    """A rule and an instance of its head.  What an environment rule
    asserts is added to asserted, if given, as (predicate, argument
    texts)."""
    asserted = [] if asserted is None else asserted
    bound, values = {"SourceFile", "SourceLine"}, {}
    skipped = "<* " if draw(st.integers(0, 5)) == 0 else ""
    if draw(st.integers(0, 7)) == 0:
        instance = draw(st.sampled_from(TEXTS))
        head = quoted(instance)
    else:
        head, instance = draw(pattern(bound, values=values))
    conditions = ""
    # an env condition holds only under an ancestor's assignment: few of them
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        node_vars = bound - {"SourceFile", "SourceLine", "_"}
        if node_vars and draw(st.booleans()):
            var = draw(variable(node_vars))
            conditions += f" & ${var} contains {draw(pattern(bound, 1))[0]}"
        else:
            rhs = draw(term(bound | set(VARS), anon=True))
            conditions += f" & {draw(st.sampled_from(ENV_VARS))} = {rhs}"
            bound |= {v for v in VARS + ["_"] if "$" + v in rhs}
    if draw(st.booleans()):
        actions = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                actions.append(f"{draw(st.sampled_from(ENV_VARS))} := "
                               f"{draw(term(bound))}")
            else:
                name, arity = draw(st.sampled_from(FACTS))
                # a pub or personne fact holds no compound (a term at depth
                # 2 is none): its builtin compares strings
                depth = 2 if name in ("pub", "personne") else 0
                args = [draw(term(bound, depth)) for _ in range(arity)]
                # a variable as the value it has in the head's instance
                asserted.append((name, [values.get(a[1:], a) for a in args]))
                actions.append(f"{name}({', '.join(args)})")
        body = "=> " + " & ".join(actions)
    else:
        # half the goals read a predicate that a rule asserts, if any
        fed = [g for g in GOALS if g[0] in FEEDS and any(
            pred == FEEDS[g[0]][0] for pred, _ in asserted)]
        name, modes = draw(st.sampled_from(
            fed if fed and draw(st.booleans()) else GOALS))
        # 19 builtin goals in 20 keep their modes.  In the others, and in
        # fact goals, every input is one compound that holds a variable
        # nothing binds, $F or $_, in half the draws, and most -> messages
        # of those goals show it ($_ less often: <$_> in a message fails to
        # load); one argument in ten is given the other mode
        strict = (name, len(modes)) in BUILTIN_MODES and draw(
            st.integers(0, 19)) < 19
        hole = None if strict else draw(st.sampled_from([None, None, "F",
                                                         "_"]))
        args = [draw(st.sampled_from(["$A", "$B", "$O"]))
                if (mode == "o") == (strict or bool(draw(st.integers(0, 9))))
                else hole and f"f(${hole})" or draw(goal_input(
                    name, i, bound, asserted, strict))
                for i, mode in enumerate(modes)]
        polarity = draw(st.sampled_from(["/", "->"]))
        # an if-absent ("/") message cannot read what the goal binds
        goal_vars = {v for v in ("A", "B", "O") if polarity == "->" and any(
            a == "$" + v for a in args)}
        message = (f"<li> <${hole}> </li>" if hole and polarity == "->"
                   and draw(st.integers(0, 3)) and (hole == "F" or draw(
                       st.booleans()))
                   else draw(consequence(bound | goal_vars)))
        body = f"? {name}({', '.join(args)}) {polarity} {message}"
    return f"{skipped}{head}{conditions}\n  {body};\n", instance


@st.composite
def document(draw, depth=0):
    name = draw(st.sampled_from(ELEMENTS))
    attrs = "".join(
        f' {attr}="{draw(st.sampled_from(STRINGS))}"'
        for attr in draw(st.lists(st.sampled_from(ATTRS), max_size=2,
                                  unique=True)))
    children = [] if depth >= 3 else draw(st.lists(
        st.one_of(document(depth + 1), st.sampled_from(TEXTS)), max_size=3))
    return f"<{name}{attrs}>" + "\n".join(children) + f"</{name}>"


@st.composite
def rule_list(draw):
    """One to four rules, each with an instance of its head; a test rule
    may read what the environment rules drawn before it assert."""
    return draw(st.lists(rule([]), min_size=1, max_size=4))


@st.composite
def corpus(draw):
    """Rules, and a document holding an instance of each head among random
    content, at random depths."""
    rules = draw(rule_list())
    parts = [instance for _, instance in rules]
    parts += draw(st.lists(document(depth=1), max_size=3))
    parts = draw(st.permutations(parts))
    while len(parts) > 1:
        # wrap a random run of the parts in a new element
        i = draw(st.integers(0, len(parts) - 1))
        j = draw(st.integers(i + 1, len(parts)))
        name = draw(st.sampled_from(ELEMENTS))
        parts[i:j] = [f"<{name}>" + "\n".join(parts[i:j]) + f"</{name}>"]
    return "".join(rule for rule, _ in rules), f"<a>{parts[0]}</a>"


PROBER_RESULTS = {"http://h/live": UrlProbeResult("http://h/live", OK, 200)}


def run_once(root, rules, doc, offline, fail_on_warnings, format):
    cfg = RunConfig(rule_files=[str(rules)], inputs=[str(doc)],
                    cache_dir=str(root / ("cache-off" if offline
                                          else "cache-on")),
                    format=format, offline=offline,
                    fail_on_warnings=fail_on_warnings)
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, prober=StubProber(PROBER_RESULTS), stdout=out,
               stderr=err)
    if cache_pack.pack_file(cfg.cache_dir).exists():
        # a run writes a pack only once its rules have loaded
        ruleset = parse_rules(rules.read_text(encoding="utf-8"), str(rules))
        captured = [getattr(r.body, "captured", None) for r in ruleset.rules]
        for path in cache_pack.entry_paths(cfg.cache_dir):
            entry = json.loads(cache_pack.entry(cfg.cache_dir, path))
            for index, _, row in entry[cache_pack.TESTS]:
                assert len(row) == len(captured[index]), (row, captured)
                assert None not in row, row
    return code, out.getvalue(), err.getvalue()


@given(corpus(), st.booleans(), st.sampled_from(FORMATS))
@settings(max_examples=250, deadline=None)
def test_any_rules_on_any_document_end_in_a_clean_exit(drawn,
                                                       fail_on_warnings,
                                                       format):
    rules_text, doc_text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rules_path = root / "fuzz.rules"
        rules_path.write_text(rules_text, encoding="utf-8")
        doc_path = root / "doc.xml"
        doc_path.write_text(doc_text, encoding="utf-8")
        for offline in (True, False):
            cold = run_once(root, rules_path, doc_path, offline,
                            fail_on_warnings, format)
            code, _, stderr = cold
            assert code in ((0, 1, 2) if fail_on_warnings else (0, 2)), cold
            assert "Traceback" not in stderr
            # validate, ground facts and the builtins bind every variable
            # of a message before it is rendered
            assert "message template uses unbound variable" not in stderr
            warm = run_once(root, rules_path, doc_path, offline,
                            fail_on_warnings, format)
            assert warm == cold


def is_ground_value(value):
    """Not a variable, nor a functor that holds one: a str, a node, a tuple
    of nodes or a ground functor."""
    return not isinstance(value, Var) and (not isinstance(value, Functor)
                                           or is_ground(value))


@given(corpus())
@settings(max_examples=250, deadline=None)
def test_every_value_bound_by_either_pass_is_ground(drawn):
    rules_text, doc_text = drawn
    try:
        rules = parse_rules(rules_text, "fuzz.rules")
    except SemlintError:
        return  # a rule file that fails at load binds nothing
    bound = []
    real = engine._eval_condition

    def watched(cond, b, env):
        # the environment that an = condition matches against, and what
        # either kind of condition binds
        result = real(cond, b, env)
        bound.extend(env.values())
        bound.extend(result.values() if result is not None else ())
        return result

    with mock.patch.object(engine, "_eval_condition", watched):
        result = evaluate_file(parse_xml(doc_text.encode("utf-8"), "doc.xml"),
                               rules, "doc.xml")
    store = merge_facts([result], rules)
    registry = make_registry(StubProber(PROBER_RESULTS))
    # each test's goal, and a goal of fresh variables for each predicate
    # that has a fact, which every one of its facts answers
    goals = [(dt.test.goal, dt.captured) for dt in result.tests]
    goals += [(Functor(name, tuple(Var(f"V{i}") for i in range(arity))), {})
              for name, arity in {(f.name, len(f.args)) for f in result.facts}]
    for goal, captured in goals:
        bound.extend(captured.values())
        try:
            solutions = solve(goal, captured, store, registry)
        except EngineError:
            continue
        for solution in solutions:
            bound.extend(solution.values())
    assert all(map(is_ground_value, bound)), bound
    assert all(map(is_ground_value, result.facts)), result.facts
