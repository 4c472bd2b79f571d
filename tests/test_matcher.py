import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlint.matcher import (Bindings, NodeListVal, NodeVal, SVal, TermVal,
                             TypeMismatch, deep_contains, match_children,
                             match_node, string_projection, unify)
from semlint.rule_ast import AttrPattern, PAnon, PElem, PEmptyElem, PText, PVar
from semlint.terms import Functor, Str, Var
from semlint.xml_frontend import Element, MalformedXml, Text, parse_xml, walk
from test_rule_index import trees
from test_xml_frontend import _documents

B0 = Bindings()


def elem(name, *children, attrs=()):
    parts = "".join(f' {k}="{v}"' for k, v in attrs)
    return f"<{name}{parts}>" + "".join(children) + f"</{name}>"


CITATION = parse_xml(b"""<citation type="thesis" year="2003">
  <title> Matching Trees </title>
  <author> A. Author </author>
  <school> Some School </school>
  <year> 2003 </year>
</citation>""", "cit.xml")

CITATION_PATTERN = PElem("citation",
                         (AttrPattern("year", Var("Y")),),
                         (PVar("T"), PVar("R")))


def test_worked_citation_example():
    b = match_node(CITATION_PATTERN, CITATION, B0)
    assert b is not None
    assert b["Y"] == SVal("2003")
    assert b["T"] == NodeVal(CITATION.children[0])
    assert b["T"].node.name == "title"
    assert b["R"] == NodeListVal(CITATION.children[1:])
    assert len(b["R"].nodes) == 3


def test_empty_element_pattern_matches_empty_element():
    node = parse_xml(b"<a></a>", "f.xml")
    assert match_node(PEmptyElem("a", ()), node, B0) == B0
    nonempty = parse_xml(b"<a><b/></a>", "f.xml")
    assert match_node(PEmptyElem("a", ()), nonempty, B0) is None


def test_nonlinear_attribute_pattern():
    p = PEmptyElem("p", (AttrPattern("x", Var("V")),
                         AttrPattern("y", Var("V"))))
    assert match_node(p, parse_xml(b'<p x="1" y="2"/>', "f"), B0) is None
    b = match_node(p, parse_xml(b'<p x="1" y="1"/>', "f"), B0)
    assert b is not None and b["V"] == SVal("1")


def test_attribute_subset_matching():
    p = PEmptyElem("a", (AttrPattern("x", Str("1")),))
    assert match_node(p, parse_xml(b'<a x="1" y="2"/>', "f"), B0) is not None
    assert match_node(p, parse_xml(b'<a y="2"/>', "f"), B0) is None
    assert match_node(p, parse_xml(b'<a x="9"/>', "f"), B0) is None


def test_anon_attr_presence_only():
    p = PEmptyElem("a", (AttrPattern("x", None),))
    assert match_node(p, parse_xml(b'<a x="anything"/>', "f"), B0) is not None
    assert match_node(p, parse_xml(b'<a y="1"/>', "f"), B0) is None


def test_text_pattern_trims_whitespace():
    node = parse_xml(b"<a>  hello world \n</a>", "f").children[0]
    assert match_node(PText("hello world"), node, B0) is not None
    assert match_node(PText("hello"), node, B0) is None


def test_children_last_var_takes_tail():
    ns = list(parse_xml(b"<r><e1/><e2/><e3/></r>", "f").children)
    b = match_children([PVar("A"), PVar("B")], ns, B0)
    assert b["A"] == NodeVal(ns[0])
    assert b["B"] == NodeListVal(tuple(ns[1:]))


def test_children_tail_may_be_empty():
    ns = list(parse_xml(b"<r><e1/></r>", "f").children)
    b = match_children([PVar("A"), PVar("B")], ns, B0)
    assert b["A"] == NodeVal(ns[0])
    assert b["B"] == NodeListVal(())


def test_empty_pattern_list_requires_empty_content():
    ns = list(parse_xml(b"<r><e1/></r>", "f").children)
    assert match_children([], ns, B0) is None
    assert match_children([], [], B0) == B0


def test_concrete_final_pattern_requires_exact_count():
    ns = list(parse_xml(b"<r><a/><b/></r>", "f").children)
    assert match_children([PVar("X"), PElem("b", (), ())], ns, B0) is not None
    assert match_children([PElem("a", (), ())], ns, B0) is None


def test_deep_contains_title():
    b = match_node(PElem("citation", (), (PVar("A"),)), CITATION, B0)
    sols = deep_contains(b["A"], PElem("title", (), (PVar("T"),)), b)
    assert len(sols) == 1
    assert string_projection(sols[0]["T"]) == "Matching Trees"


def test_deep_contains_no_match_is_empty():
    sols = deep_contains(NodeVal(CITATION), PElem("nosuch", (), ()), B0)
    assert sols == []


def test_deep_contains_rejects_string_roots():
    with pytest.raises(TypeMismatch):
        deep_contains(SVal("x"), PElem("a", (), ()), B0)


def test_string_projection_flattens_and_normalizes():
    root = parse_xml(b"<a> one <b> two\n three </b> four </a>", "f")
    assert string_projection(NodeVal(root)) == "one two three four"
    assert string_projection(NodeListVal(root.children)) == \
        "one two three four"
    assert string_projection(SVal(" raw ")) == " raw "
    assert string_projection(TermVal(Functor("f", (Str("x"),)))) == 'f("x")'


# -- unification --------------------------------------------------------------

def test_unify_flat_ground():
    goal = Functor("head", (Var("P"), Var("X")))
    fact = Functor("head", (Str("Smith"), Str("CS")))
    b = unify(goal, fact, B0)
    assert b["P"] == SVal("Smith")
    assert b["X"] == SVal("CS")


def test_unify_functor_clash():
    assert unify(Functor("f", (Var("A"),)), Functor("g", (Var("A"),)),
                 B0) is None


def test_unify_with_prebound_variable():
    title = "Three knowledge representation formalisms"
    b = B0.bind("T", SVal(title))
    goal = Functor("pub", (Var("T"), Var("O")))
    fact = Functor("pub", (Str(title), Str("orpailleur")))
    b2 = unify(goal, fact, b)
    assert b2["O"] == SVal("orpailleur")
    wrong = Functor("pub", (Str("other"), Str("x")))
    assert unify(goal, wrong, b) is None


def test_unify_nested():
    b = unify(Functor("f", (Functor("g", (Var("X"),)), Str("1"))),
              Functor("f", (Functor("g", (Str("v"),)), Str("1"))), B0)
    assert b["X"] == SVal("v")


def test_unify_node_values_require_identity():
    node = parse_xml(b"<a/>", "f")
    other = parse_xml(b"<b/>", "f")
    b = B0.bind("X", NodeVal(node))
    assert unify(Var("X"), Var("Y"), b)["Y"] == NodeVal(node)
    assert unify(Var("X"), NodeVal(node), B0.bind("X", NodeVal(node))) \
        is not None
    assert unify(Var("X"), NodeVal(other), b) is None
    assert unify(Var("X"), Str("a"), b) is None


# -- randomized trees + oracle -----------------------------------------------

def random_tree(rng, max_nodes):
    names = ["a", "b", "c", "d"]
    budget = [rng.randint(1, max_nodes)]

    def build(depth):
        budget[0] -= 1
        if budget[0] <= 0 or (depth > 0 and rng.random() < 0.3):
            if rng.random() < 0.3:
                return f"t{rng.randint(0, 2)}"
            return elem(rng.choice(names),
                        attrs=[("k", str(rng.randint(0, 2)))]
                        if rng.random() < 0.5 else [])
        kids = [build(depth + 1)
                for _ in range(rng.randint(0, 3)) if budget[0] > 0]
        return elem(rng.choice(names), *kids)

    xml = elem("root", build(0))
    return parse_xml(xml.encode(), "rand.xml")


def random_pattern(rng):
    names = ["a", "b", "c", "d"]
    choice = rng.random()
    if choice < 0.2:
        return PEmptyElem(rng.choice(names),
                          (AttrPattern("k", Var("K")),))
    if choice < 0.4:
        return PElem(rng.choice(names), (), (PVar("X"),))
    if choice < 0.6:
        return PElem(rng.choice(names), (), (PAnon(), PVar("X")))
    if choice < 0.8:
        return PText(f"t{rng.randint(0, 2)}")
    return PElem(rng.choice(names), (), ())


def oracle_contains(root_value, pattern, b):
    if isinstance(root_value, NodeVal):
        nodes = [root_value.node]
    else:
        nodes = list(root_value.nodes)
    all_nodes = [d for n in nodes for d in walk(n)]
    return [r for r in (match_node(pattern, n, b) for n in all_nodes)
            if r is not None]


def test_deep_contains_matches_oracle_on_random_trees():
    rng = random.Random(20240817)
    for _ in range(300):
        tree = random_tree(rng, 60)
        pattern = random_pattern(rng)
        root = NodeVal(tree) if rng.random() < 0.5 \
            else NodeListVal(tree.children)
        assert deep_contains(root, pattern, B0) == \
            oracle_contains(root, pattern, B0)


# -- hypothesis property tests -------------------------------------------------

xml_names = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def xml_trees(draw, depth=0):
    name = draw(xml_names)
    n_attrs = draw(st.integers(0, 2))
    attr_names = draw(st.lists(st.sampled_from(["x", "y", "z"]),
                               min_size=n_attrs, max_size=n_attrs,
                               unique=True))
    attrs = [(a, draw(st.sampled_from(["0", "1", "2"]))) for a in attr_names]
    if depth >= 3:
        children = []
    else:
        children = draw(st.lists(xml_trees(depth=depth + 1), max_size=3))
    body = "".join(children)
    parts = "".join(f' {k}="{v}"' for k, v in attrs)
    return f"<{name}{parts}>{body}</{name}>"


@st.composite
def patterns(draw, depth=0):
    kind = draw(st.integers(0, 4))
    if kind == 0 or depth >= 2:
        return PVar(draw(st.sampled_from(["P", "Q", "R"])))
    if kind == 1:
        return PAnon()
    name = draw(xml_names)
    attrs = []
    for attr_name in draw(st.lists(st.sampled_from(["x", "y", "z"]),
                                   max_size=2, unique=True)):
        v = draw(st.one_of(st.none(),
                           st.builds(Var, st.sampled_from(["V", "W"])),
                           st.builds(Str, st.sampled_from(["0", "1"]))))
        attrs.append(AttrPattern(attr_name, v))
    if kind == 2:
        return PEmptyElem(name, tuple(attrs))
    children = tuple(draw(st.lists(patterns(depth=depth + 1), max_size=3)))
    return PElem(name, tuple(attrs), children)


@given(patterns(), xml_trees())
@settings(max_examples=200, deadline=None)
def test_match_bindings_are_monotone(pattern, xml):
    node = parse_xml(xml.encode(), "h.xml")
    b = match_node(pattern, node, B0)
    if b is not None:
        assert all(name in b for name in B0)
    seeded = Bindings().bind("Zpre", SVal("kept"))
    b2 = match_node(pattern, node, seeded)
    if b2 is not None:
        assert b2["Zpre"] == SVal("kept")


@given(patterns(), xml_trees(), st.randoms())
@settings(max_examples=200, deadline=None)
def test_attribute_order_invariance(pattern, xml, rng):
    node = parse_xml(xml.encode(), "h.xml")

    def permute(n):
        if not hasattr(n, "attrs"):
            return n
        attrs = list(n.attrs)
        rng.shuffle(attrs)
        return type(n)(n.name, tuple(attrs),
                       tuple(permute(c) for c in n.children), n.pos)

    b1 = match_node(pattern, node, B0)
    b2 = match_node(pattern, permute(node), B0)
    # bound subtrees may carry the permuted attrs; compare projections
    assert (b1 is None) == (b2 is None)
    if b1 is not None:
        assert sorted(b1) == sorted(b2)
        for name in b1:
            assert string_projection(b1[name]) == string_projection(b2[name])


@given(st.lists(patterns(), max_size=4), xml_trees())
@settings(max_examples=200, deadline=None)
def test_tail_insertion_invariance(ps, xml):
    node = parse_xml(xml.encode(), "h.xml")
    ns = list(node.children)
    if not (ps and isinstance(ps[-1], (PVar, PAnon))):
        ps = ps + [PAnon()]
    if match_children(ps, ns, B0) is not None:
        extra = parse_xml(b"<extra/>", "h.xml")
        assert match_children(ps, ns + [extra], B0) is not None


terms = st.recursive(
    st.one_of(st.builds(Var, st.sampled_from(["X", "Y", "Z"])),
              st.builds(Str, st.sampled_from(["0", "1", "2"]))),
    lambda sub: st.builds(Functor, st.sampled_from(["f", "g"]),
                          st.lists(sub, max_size=3).map(tuple)),
    max_leaves=8)


@given(terms, terms)
@settings(max_examples=300, deadline=None)
def test_unify_success_symmetry(t1, t2):
    assert (unify(t1, t2, B0) is not None) == (unify(t2, t1, B0) is not None)


@given(terms, terms)
@settings(max_examples=300, deadline=None)
def test_unify_extends_input_bindings(t1, t2):
    seeded = Bindings().bind("Pre", SVal("v"))
    b = unify(t1, t2, seeded)
    if b is not None:
        assert b["Pre"] == SVal("v")


# -- the iterative walks against the recursive definitions they replaced ------

def walk_reference(node):
    yield node
    if isinstance(node, Element):
        for child in node.children:
            yield from walk_reference(child)


def texts_reference(node):
    if isinstance(node, Text):
        return [node.content]
    return [t for child in node.children for t in texts_reference(child)]


def _parsed(docs):
    try:
        return parse_xml(docs[0], "f.xml")
    except MalformedXml:
        return None


@given(st.one_of(trees(), _documents().map(_parsed).filter(
    lambda doc: doc is not None)))
@settings(max_examples=300, deadline=None)
def test_walk_and_projection_match_recursive_references(doc):
    assert [id(n) for n in walk(doc)] == [id(n) for n in walk_reference(doc)]
    for node in walk_reference(doc):
        assert string_projection(NodeVal(node)) == " ".join(
            " ".join(texts_reference(node)).split())
    assert string_projection(NodeListVal(doc.children)) == " ".join(
        " ".join(t for child in doc.children
                 for t in texts_reference(child)).split())


def test_walk_and_projection_at_any_depth():
    depth = 5000
    doc = parse_xml(b"<s>" * depth + b" x " + b"</s>" * depth, "f.xml")
    assert [type(n).__name__ for n in walk(doc)] == ["Element"] * depth + [
        "Text"]
    assert string_projection(NodeVal(doc)) == "x"
    assert deep_contains(NodeVal(doc), PText("x"), B0) == [B0]
