import html
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlint.dsl_parser import parse_rules
from semlint.record import escape, quote_string
from semlint.reporting import Message, emit_report, render_consequence
from semlint.rule_ast import (AttrPattern, PAnon, PElem, PEmptyElem, PText,
                              PVar, compile_consequence)
from semlint.terms import Functor, Var, is_ground
from semlint.xml_frontend import Element, SourcePos, Text

import legacy_render


def template_of(rule_text):
    rs = parse_rules(rule_text, "r.rules")
    return rs.rules[0].body.template


STAFF_RULE = """\
<pers prenom=$P nom=$N> <$_> </pers>
? personne1($P,$N) /
  <li>
    Warning: <$P> <$N> line <$SourceLine>
    does not appear in the current staff chart.
  </li> ;
"""


def test_staff_warning_renders_to_one_line():
    b = {"P": "J.", "N": "Doe", "SourceLine": "42"}
    html, text, _ = render_consequence(template_of(STAFF_RULE), b)
    assert text == ("Warning: J. Doe line 42 does not appear in the "
                    "current staff chart.")
    assert html == ("<li> Warning: J. Doe line 42 does not appear in the "
                    "current staff chart. </li>")


def test_nested_markup_kept_in_html_dropped_in_text():
    c = template_of(
        "<a/> ? p($T) -> <li> cite <i> \"<$T>\" </i> here <p> </p> </li> ;")
    b = {"T": "A Title"}
    html, text, _ = render_consequence(c, b)
    # sibling template parts are space-joined, so the quotes detach
    assert html == '<li> cite <i> " A Title " </i> here <p> </p> </li>'
    assert text == 'cite " A Title " here'


def test_substituted_values_escaped_in_html_only():
    c = template_of("<a/> ? p($X) -> <li> got <$X> </li> ;")
    b = {"X": "a <b> & c"}
    html, text, _ = render_consequence(c, b)
    assert html == "<li> got a &lt;b&gt; &amp; c </li>"
    assert text == "got a <b> & c"


def test_whitespace_normalized_across_template_lines():
    c = template_of("<a/> ? p($X) -> <li>\n\tone\n\t  two <$X> </li> ;")
    html, text, _ = render_consequence(c, {"X": "three"})
    assert text == "one two three"
    assert "\n" not in html and "\t" not in html


def test_term_consequence_renders_as_term_text():
    html, text, _ = render_consequence(
        compile_consequence(Functor("missing", (Var("P"), "x"))),
        {"P": "Doe"})
    assert text == 'missing("Doe","x")'
    assert html == 'missing(&quot;Doe&quot;,&quot;x&quot;)'.replace(
        "&quot;", '"')  # quotes not escaped outside attributes


def msg(file, line, rule, body, key=""):
    return Message(SourcePos(file, line), rule, f"<li> {body} </li>", body,
                   key, ())


def test_emit_text_sorted_by_position_then_rule():
    msgs = [msg("b.xml", 9, 0, "late"),
            msg("a.xml", 5, 2, "second"),
            msg("a.xml", 5, 1, "first"),
            msg("a.xml", 2, 7, "top")]
    out = emit_report(msgs, [], "text")
    assert out.splitlines() == [
        "a.xml:2: top",
        "a.xml:5: first",
        "a.xml:5: second",
        "b.xml:9: late",
        "4 messages",
    ]


def test_emit_deduplicates_identical_messages():
    m = msg("a.xml", 1, 0, "once")
    out = emit_report([m, m, m], [], "text")
    assert out.splitlines() == ["a.xml:1: once", "1 messages"]


def test_solution_key_separates_same_position_messages():
    msgs = [msg("a.xml", 1, 0, "co-pub with p2", key="O=p2"),
            msg("a.xml", 1, 0, "co-pub with p1", key="O=p1")]
    out = emit_report(msgs, [], "text")
    assert out.splitlines()[:2] == ["a.xml:1: co-pub with p1",
                                    "a.xml:1: co-pub with p2"]


def test_emit_html_list():
    out = emit_report([msg("a.xml", 1, 0, "warn & done")], [], "html")
    assert out == ("<ul>\n<li> warn & done </li>\n</ul>\n"
                   "<p>1 messages</p>\n")


def test_emit_html_wraps_bare_fragments_and_escapes_diagnostics():
    bare = Message(SourcePos("a.xml", 1), 0, "plain html", "plain text", "",
                   ())
    out = emit_report([bare], ["diag <x>"], "html")
    lines = out.splitlines()
    assert lines[0] == '<p class="diagnostic">diag &lt;x&gt;</p>'
    assert "<li>plain html</li>" in lines


@pytest.mark.parametrize("template, item", [
    # a root element that only starts with "li" is wrapped
    ("<list> hi </list>", "<li><list> hi </list></li>"),
    ("<link/>", "<li><link/></li>"),
    # an li root is already a list item, with or without attributes
    ("<li> hi </li>", "<li> hi </li>"),
    ('<li class="w"> hi </li>', '<li class="w"> hi </li>'),
    ("<li/>", "<li/>"),
])
def test_emit_html_wraps_every_root_but_li(template, item):
    html, text, _ = render_consequence(
        template_of(f"<a/> ? p() / {template} ;"), {})
    out = emit_report([Message(SourcePos("a.xml", 1), 0, html, text, "", ())],
                      [], "html")
    assert out.splitlines()[1] == item


def test_emit_machine_json_lines():
    out = emit_report([msg("a.xml", 3, 1, "warn")], ["oops"], "machine")
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0] == {"diagnostic": "oops"}
    assert records[1] == {"file": "a.xml", "line": 3, "rule": 1,
                          "text": "warn", "html": "<li> warn </li>"}
    assert records[2] == {"messages": 1}


def test_emit_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report([], [], "yaml")


def test_empty_report_has_summary_only():
    assert emit_report([], [], "text") == "0 messages\n"
    assert emit_report([], [], "html") == "<ul>\n</ul>\n<p>0 messages</p>\n"


# every character html.escape rewrites, and its replacements' own letters
@given(st.text(alphabet=st.sampled_from('&<>"\'#x27;amplgtquo é\u2028')
               | st.characters()), st.booleans())
@settings(max_examples=500)
def test_escape_equals_html_escape(s, quote):
    assert escape(s, quote) == html.escape(s, quote)
    assert escape(s) == html.escape(s)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def quote_string_by_character(s):
    # quote_string as it was: one dict lookup per character
    return '"' + "".join(_ESCAPES.get(c, c) for c in s) + '"'


# each escaped character, next to each other and to what an escape writes
@given(st.text(alphabet=st.sampled_from('ab"\\\n\t\r é\0nrt')
               | st.characters()))
@settings(max_examples=500)
def test_quote_string_equals_the_character_by_character_quote(s):
    assert quote_string(s) == quote_string_by_character(s)


# any str, lone surrogates included, as a file name read from the disk can be
ANY_TEXT = st.text(st.characters(blacklist_categories=())
                   | st.sampled_from('\udcff\ud800"\\\n\x00\u2028é'))


@given(st.lists(st.tuples(ANY_TEXT, st.integers(0, 10**6),
                          st.integers(0, 300), ANY_TEXT, ANY_TEXT),
                max_size=5),
       st.lists(ANY_TEXT, max_size=3))
@settings(max_examples=300)
def test_machine_lines_equal_json_dumps(rows, diagnostics):
    msgs = [Message(SourcePos(file, line), rule, html, text, "", ())
            for file, line, rule, html, text in rows]
    ordered = sorted(set(msgs), key=Message.sort_key)
    want = [json.dumps({"diagnostic": d}, sort_keys=True)
            for d in sorted(set(diagnostics))]
    want += [json.dumps({"file": m.pos.file, "line": m.pos.line,
                         "rule": m.rule_index, "text": m.text,
                         "html": m.html}, sort_keys=True) for m in ordered]
    want.append(json.dumps({"messages": len(ordered)}))
    assert emit_report(msgs, diagnostics, "machine") == "\n".join(want) + "\n"


# -- the compiled templates against the recursive renderer they replace -------

VAR_NAMES = ["X", "Y", "SourceFile", "SourceLine"]
# markup, quotes, backslashes and whitespace runs of every kind that
# str.split() knows, around plain letters
TEXTS = st.lists(st.sampled_from([*"ab&<>\"'\\ \t\r\n\x0b\x1f\x85\xa0\u2028é",
                                  "  ", "\r\n\t ", "a  b"]),
                 max_size=6).map("".join)
POS = SourcePos("f.xml", 1)


def nodes(depth=0):
    text = st.builds(Text, TEXTS, st.just(POS))
    if depth >= 2:
        return text
    return text | st.builds(Element, st.sampled_from(["p", "q"]), st.just(()),
                            st.lists(nodes(depth + 1), max_size=3).map(tuple),
                            st.just(POS))


TERMS = st.recursive(
    st.builds(Var, st.sampled_from(VAR_NAMES + ["_"])) | TEXTS,
    lambda args: st.builds(Functor, st.sampled_from(["f", "g-h"]),
                           st.lists(args, max_size=3).map(tuple)),
    max_leaves=6)
ATTRS = st.lists(st.builds(
    AttrPattern, st.sampled_from(["a", "b"]),
    TEXTS | st.builds(Var, st.sampled_from(VAR_NAMES)) | st.none()),
    max_size=2, unique_by=lambda a: a.name).map(tuple)
PATTERNS = st.recursive(
    st.builds(PText, TEXTS) | st.builds(PVar, st.sampled_from(VAR_NAMES))
    | st.builds(PAnon) | st.builds(PEmptyElem, st.sampled_from(["i", "br"]),
                                   ATTRS),
    lambda children: st.builds(PElem, st.sampled_from(["li", "i"]), ATTRS,
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=8)
VALUES = (TEXTS | nodes() | st.lists(nodes(), max_size=3).map(tuple)
          | TERMS.filter(is_ground))


def rendered(render, consequence, bindings):
    # the compiled renderer indexes the bindings, the oracle raises its own
    try:
        return render(consequence, bindings)[:2]
    except legacy_render.UnboundInConsequence as exc:
        return "unbound", exc.var
    except KeyError as exc:
        return "unbound", exc.args[0]


@given(st.one_of(PATTERNS, TERMS), st.dictionaries(
    st.sampled_from(VAR_NAMES + ["_"]), VALUES, max_size=5))
@settings(max_examples=1000, deadline=None)
def test_a_compiled_template_renders_as_the_recursive_renderer(
        consequence, bindings):
    if not isinstance(consequence, (Var, str, Functor)):
        # a pattern's <$_> and name=$_ bind nothing: the parser rejects them
        # in a message, and the old renderer never looked $_ up
        bindings.pop("_", None)
    template = compile_consequence(consequence)
    assert (rendered(lambda c, b: render_consequence(template, b),
                     consequence, bindings)
            == rendered(legacy_render.render_consequence, consequence,
                        bindings))
