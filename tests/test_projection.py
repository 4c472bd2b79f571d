"""Projected parsing: a run builds only the nodes that its rules can observe.

The builder is checked against a model that projects the full tree, on
random documents and random projections; the whole pass 1 is checked
against a full-tree parse, on rule files and documents drawn from the CLI
fuzzer's grammar, on the acceptance corpus and on a generated bulky report.
"""

import gc
import importlib.util
import json
import re
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUPPLEMENT_RULES, acacia_xml, orpailleur_xml
from semlint.dsl_parser import LexError, ParseError, parse_rule_texts
from semlint.engine import EngineError, evaluate_file, projection
from semlint.xml_frontend import (KEEP, SKIP, WHOLE, Element, MalformedXml,
                                  Projection, Text, parse_xml, walk)
from test_cli_fuzz import ELEMENTS, document, rule_list
from test_xml_frontend import _documents

ROOT = Path(__file__).resolve().parent.parent


# -- the builder against a projection of the full tree ------------------------

def projected(node: Element, proj: Projection) -> Element:
    """node, built as its row says (the model of parse_xml's skip mode)."""
    kinds, rest = proj.rows.get(node.name, ((), SKIP))
    children = []
    for i, child in enumerate(node.children):
        kind = kinds[i] if i < len(kinds) else rest
        if isinstance(child, Text) or kind == WHOLE:
            children.append(child)
        elif kind == KEEP or child.name in proj.heads:
            children.append(projected(child, proj))
        else:
            children.append(Element(child.name, child.attrs,
                                    tuple(heads_inside(child, proj)),
                                    child.pos))
    return Element(node.name, node.attrs, tuple(children), node.pos)


def heads_inside(node: Element, proj: Projection):
    for child in node.children:
        if isinstance(child, Element):
            if child.name in proj.heads:
                yield projected(child, proj)
            else:
                yield from heads_inside(child, proj)


def parsed(data: bytes, proj=None):
    try:
        return parse_xml(data, "f.xml", proj)
    except MalformedXml as exc:
        return ("MalformedXml", str(exc))


@st.composite
def documents_and_projections(draw):
    """A random document, whole or cut, and a projection over its names."""
    whole, truncated = draw(_documents())
    data = draw(st.sampled_from([whole, truncated]))
    full = parsed(whole)
    names = sorted({n.name for n in walk(full) if isinstance(n, Element)}
                   if isinstance(full, Element) else {"a"})
    kind = st.sampled_from([SKIP, KEEP, WHOLE])
    rows = draw(st.dictionaries(
        st.sampled_from(names),
        st.tuples(st.lists(kind, max_size=4).map(tuple), kind)))
    heads = draw(st.frozensets(st.sampled_from(names)))
    return data, Projection(heads, rows)


@given(documents_and_projections())
@settings(max_examples=400, deadline=None)
def test_projected_parse_is_the_projection_of_the_full_tree(drawn):
    data, proj = drawn
    full = parsed(data)
    if isinstance(full, Element):
        full = projected(full, proj)
    assert parsed(data, proj) == full


def test_placeholders_keep_sibling_positions_and_hold_inner_heads():
    data = (b"<r><x>text <h>a</h> <y><h>b</h></y></x>\n<k><z>deep</z></k>"
            b"<w><z>all</z></w></r>")
    proj = Projection(frozenset({"h"}), {"r": ((SKIP, KEEP), WHOLE)})
    root = parse_xml(data, "f.xml", proj)
    x, k, w = root.children
    assert [h.children[0].content for h in x.children] == ["a", "b"]
    assert k.children == (Element("z", (), (), k.pos),)  # z has no row
    assert w == parse_xml(data, "f.xml").children[2]
    assert len(list(walk(root))) == 11


def test_references_in_a_skipped_subtree_are_checked_as_in_a_full_parse():
    proj = Projection(frozenset(), {})
    prolog = b'<!DOCTYPE r [<!ENTITY e "x">]>\n'
    ok = prolog + b"<r><s>&amp; &#65; <![CDATA[&e;]]><!--&e;--></s></r>"
    assert parse_xml(ok, "f.xml", proj).children[0].children == ()
    for bad in (b"<r><s>\n&e;</s></r>", b'<r><s><t\nv="&e;"/></s></r>'):
        assert parsed(prolog + bad, proj) == parsed(prolog + bad)
        assert parsed(prolog + bad)[1] == "f.xml:3: bad entity &e;"
    cut = b"<r><s><t>\n</s></r>"
    assert parsed(cut, proj) == parsed(cut) == (
        "MalformedXml",
        "f.xml:2: close tag 't' expected, found 's' (element opened at "
        "line 1)")


def test_a_parse_leaves_no_reference_cycle():
    # a cycle would keep the tree and the parser of each input alive until
    # the next full collection
    proj = Projection(frozenset({"h"}), {"r": ((KEEP, WHOLE), SKIP)})
    data = b"<r><k><z/></k><w><h/></w><s><t/><h>x</h></s></r>"
    gc.collect()
    gc.disable()
    try:
        for p in (None, proj):
            parse_xml(data, "f.xml", p)
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- pass 1 on projected trees ------------------------------------------------

def pass_one(data: bytes, rules, proj):
    try:
        doc = parse_xml(data, "doc.xml", proj)
    except MalformedXml as exc:
        return ("MalformedXml", str(exc))
    try:
        return evaluate_file(doc, rules, "doc.xml")
    except EngineError as exc:
        return ("EngineError", str(exc))


def assert_projection_invisible(rules_text: str, data: bytes):
    rules = parse_rule_texts([(rules_text, "r.rules")])
    assert (pass_one(data, rules, projection(rules))
            == pass_one(data, rules, None))


# what the fuzzer's documents put between two children, biased towards the
# constructs a skipped subtree must still read as a full parse does
SEPARATORS = (["\n"] * 6 + ["", " w ", "\n<!-- c -->\n", "<![CDATA[ w ]]>",
                            " &amp; ", "&#65;", "<?pi x?>"])
# names no drawn rule is headed by
UNWATCHED = ["s", "t"]


@st.composite
def fuzz_corpus(draw):
    """test_cli_fuzz.corpus, with head instances nested under wrappers that
    are often no head, and comments, CDATA and references between children,
    sometimes under a DOCTYPE and with a reference to a DTD entity."""
    rules = draw(rule_list())
    if draw(st.integers(0, 3)):
        # a text head turns projection off: keep one only now and then
        rules = [r for r in rules if not re.match('(<\\* )?"', r[0])] or rules
    parts = [instance for _, instance in rules]
    parts += draw(st.lists(document(depth=1), max_size=3))
    parts += [f"<{name}> {text} </{name}>" for name, text in draw(st.lists(
        st.tuples(st.sampled_from(UNWATCHED), st.sampled_from(SEPARATORS)),
        max_size=2))]
    parts = draw(st.permutations(parts))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 1))
        j = draw(st.integers(i + 1, len(parts)))
        name = draw(st.sampled_from(ELEMENTS + UNWATCHED * 2))
        parts[i:j] = [f"<{name}>" + "\n".join(parts[i:j]) + f"</{name}>"]
    doc = f"<a>{parts[0]}</a>"
    gaps = draw(st.lists(st.sampled_from(SEPARATORS),
                         min_size=doc.count("\n"), max_size=doc.count("\n")))
    if gaps and draw(st.integers(0, 9)) == 5:
        gaps[draw(st.integers(0, len(gaps) - 1))] = "&e;"
    doc = re.sub("\n", lambda _: gaps.pop(), doc)
    prolog = draw(st.sampled_from(
        ["", "", "<!DOCTYPE a>\n", '<!DOCTYPE a [<!ENTITY e "x">]>\n']))
    return "".join(r for r, _ in rules), prolog + doc


@given(fuzz_corpus())
@settings(max_examples=300, deadline=None)
def test_pass_one_is_the_same_on_the_projected_tree(drawn):
    rules_text, doc_text = drawn
    try:
        parse_rule_texts([(rules_text, "r.rules")])
    except (LexError, ParseError):
        return
    assert_projection_invisible(rules_text, doc_text.encode())


def test_a_text_head_builds_every_node():
    rules = parse_rule_texts([('"w" => p("w");', "r.rules")])
    assert projection(rules) is None


def test_projection_of_raweb_rules(raweb_rules_text):
    proj = projection(parse_rule_texts([(raweb_rules_text, "raweb.rules")]))
    assert proj.heads == {"raweb", "catperso", "pers", "citation", "byear",
                          "btitle", "xref"}
    assert proj.rows == {
        "raweb": ((KEEP,), SKIP), "accueil": ((SKIP, SKIP, KEEP), SKIP),
        "projet": ((WHOLE,), SKIP), "catperso": ((), SKIP),
        "pers": ((), SKIP), "citation": ((), WHOLE),
        "byear": ((WHOLE,), SKIP), "btitle": ((WHOLE,), SKIP),
        "xref": ((), SKIP)}


def test_acceptance_corpus_pass_one_is_unchanged(raweb_rules_text):
    rules_text = raweb_rules_text + SUPPLEMENT_RULES
    for fixed in (False, True):
        for xml in (acacia_xml, orpailleur_xml):
            assert_projection_invisible(
                rules_text, xml("http://127.0.0.1:1", fixed).encode())


def test_a_bulky_report_is_mostly_skipped(raweb_rules_text, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    params = json.loads((ROOT / "perfbench" / "workloads.json").read_text(
        encoding="utf-8"))["reports-bulky"]["params"]
    data = corpus.generate({**params, "files": 2}, 7).texts()[0].encode()
    rules = parse_rule_texts([(raweb_rules_text, "raweb.rules")])
    full = parse_xml(data, "r.xml")
    small = parse_xml(data, "r.xml", projection(rules))
    assert len(list(walk(small))) < 0.1 * len(list(walk(full)))
    assert (evaluate_file(small, rules, "r.xml")
            == evaluate_file(full, rules, "r.xml"))
