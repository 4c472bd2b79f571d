import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_unify
from semlint.matcher import (TypeMismatch, deep_contains, match_children,
                             match_node, match_term, string_projection)
from semlint.rule_ast import AttrPattern, PAnon, PElem, PEmptyElem, PText, PVar
from semlint.terms import Functor, Var
from semlint.xml_frontend import Element, MalformedXml, Text, parse_xml, walk
from test_rule_index import trees
from test_xml_frontend import _documents

B0 = {}


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
    assert b["Y"] == "2003"
    assert b["T"] is CITATION.children[0]
    assert b["T"].name == "title"
    assert b["R"] == CITATION.children[1:]
    assert len(b["R"]) == 3


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
    assert b is not None and b["V"] == "1"


def test_attribute_subset_matching():
    p = PEmptyElem("a", (AttrPattern("x", "1"),))
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
    assert b["A"] is ns[0]
    assert b["B"] == tuple(ns[1:])


def test_children_tail_may_be_empty():
    ns = list(parse_xml(b"<r><e1/></r>", "f").children)
    b = match_children([PVar("A"), PVar("B")], ns, B0)
    assert b["A"] is ns[0]
    assert b["B"] == ()


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
    sols = deep_contains(CITATION, PElem("nosuch", (), ()), B0)
    assert sols == []


def test_deep_contains_rejects_string_roots():
    with pytest.raises(TypeMismatch):
        deep_contains("x", PElem("a", (), ()), B0)


def test_string_projection_flattens_and_normalizes():
    root = parse_xml(b"<a> one <b> two\n three </b> four </a>", "f")
    assert string_projection(root) == "one two three four"
    assert string_projection(root.children) == \
        "one two three four"
    assert string_projection(" raw ") == " raw "
    assert string_projection(Functor("f", ("x",))) == 'f("x")'


# -- matching rule terms against ground values --------------------------------

def test_match_term_flat_ground():
    goal = Functor("head", (Var("P"), Var("X")))
    fact = Functor("head", ("Smith", "CS"))
    b = match_term(goal, fact, B0)
    assert b["P"] == "Smith"
    assert b["X"] == "CS"


def test_match_term_functor_clash():
    assert match_term(Functor("f", (Var("A"),)), Functor("g", ("a",)),
                      B0) is None


def test_match_term_functor_arity_clash():
    # zip would stop at the shorter argument list
    assert match_term(Functor("f", (Var("A"),)), Functor("f", ("a", "b")),
                      B0) is None
    assert match_term(Functor("f", ("a", Var("A"))), Functor("f", ("a",)),
                      B0) is None


def test_match_term_with_prebound_variable():
    title = "Three knowledge representation formalisms"
    b = {"T": title}
    goal = Functor("pub", (Var("T"), Var("O")))
    fact = Functor("pub", (title, "orpailleur"))
    b2 = match_term(goal, fact, b)
    assert b2["O"] == "orpailleur"
    wrong = Functor("pub", ("other", "x"))
    assert match_term(goal, wrong, b) is None


def test_match_term_repeated_variable_must_agree():
    goal = Functor("p", (Var("X"), Var("X")))
    assert match_term(goal, Functor("p", ("a", "a")), B0) == {"X": "a"}
    assert match_term(goal, Functor("p", ("a", "b")), B0) is None


def test_match_term_nested():
    b = match_term(Functor("f", (Functor("g", (Var("X"),)), "1")),
                   Functor("f", (Functor("g", ("v",)), "1")), B0)
    assert b["X"] == "v"


def test_match_term_node_values_require_equal_content():
    node = parse_xml(b"<a/>", "f")
    other = parse_xml(b"<b/>", "f")
    b = {"X": node}
    assert match_term(Var("X"), node, {"X": node}) is not None
    assert match_term(Var("X"), other, b) is None
    assert match_term(Var("X"), "a", b) is None
    assert match_term("a", node, B0) is None
    assert match_term(Functor("a", ()), node, B0) is None


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
    if isinstance(root_value, tuple):
        nodes = list(root_value)
    else:
        nodes = [root_value]
    all_nodes = [d for n in nodes for d in walk(n)]
    return [r for r in (match_node(pattern, n, b) for n in all_nodes)
            if r is not None]


def test_deep_contains_matches_oracle_on_random_trees():
    rng = random.Random(20240817)
    for _ in range(300):
        tree = random_tree(rng, 60)
        pattern = random_pattern(rng)
        root = tree if rng.random() < 0.5 else tree.children
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
                           st.sampled_from(["0", "1"])))
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
    seeded = {"Zpre": "kept"}
    b2 = match_node(pattern, node, seeded)
    if b2 is not None:
        assert b2["Zpre"] == "kept"


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
              st.sampled_from(["0", "1", "2"])),
    lambda sub: st.builds(Functor, st.sampled_from(["f", "g"]),
                          st.lists(sub, max_size=3).map(tuple)),
    max_leaves=8)


# -- match_term against the wrapper-based unify it replaced -------------------
#
# Every fact and every bound value is ground, so a match has a ground side:
# the oracle must give the same result with the ground side on either hand.

POOL_ROOT = parse_xml(b"<r><a>x</a><a>x</a><b/>y</r>", "pool.xml")
# the two <a> elements are distinct objects with equal content
POOL_NODES = (POOL_ROOT, *POOL_ROOT.children)
POOL_TAILS = tuple(POOL_ROOT.children[i:]
                   for i in range(len(POOL_ROOT.children) + 1))
WRAPPERS = (legacy_unify.SVal, legacy_unify.TermVal, legacy_unify.NodeVal,
            legacy_unify.NodeListVal)

ground_terms = st.recursive(
    st.sampled_from(["0", "1", "2"]),
    lambda sub: st.builds(Functor, st.sampled_from(["f", "g"]),
                          st.lists(sub, max_size=3).map(tuple)),
    max_leaves=6)


def wrapped_values():
    """A bound value, as the old matcher held it."""
    return st.one_of(
        st.sampled_from(["0", "1", "2"]).map(legacy_unify.SVal),
        st.builds(Functor, st.sampled_from(["f", "g"]),
                  st.lists(ground_terms, max_size=2).map(tuple))
        .map(legacy_unify.TermVal),
        st.sampled_from(POOL_NODES).map(legacy_unify.NodeVal),
        st.sampled_from(POOL_TAILS).map(legacy_unify.NodeListVal))


# a ground value, as a plain term or as the old matcher's wrapper
ground_values = st.one_of(ground_terms, wrapped_values())


@st.composite
def wrapped_bindings(draw):
    """Seeded bindings of X, Y and Z, each unbound or bound to a value."""
    seeded = {}
    for name in ["X", "Y", "Z"]:
        if draw(st.booleans()):
            seeded[name] = draw(wrapped_values())
    return seeded


def plain(value):
    if isinstance(value, WRAPPERS):
        return legacy_unify.unwrap(value)
    return value


def plain_bindings(b):
    return {name: plain(value) for name, value in b.items()}


@given(terms, ground_values, wrapped_bindings())
@settings(max_examples=1000, deadline=None)
def test_match_term_is_the_wrapper_based_unify_both_ways_round(t, g, seeded):
    new = match_term(t, plain(g), plain_bindings(seeded))
    for old in (legacy_unify.unify(t, g, seeded),
                legacy_unify.unify(g, t, seeded)):
        if old is None:
            assert new is None
        else:
            assert new == plain_bindings(old)


@given(terms, ground_values)
@settings(max_examples=300, deadline=None)
def test_match_term_extends_input_bindings(t, g):
    seeded = {"Pre": "v"}
    b = match_term(t, plain(g), seeded)
    if b is not None:
        assert b["Pre"] == "v"


# -- bindings are plain dicts that no operation changes ------------------------

@given(patterns(), xml_trees(), terms, ground_values, wrapped_bindings(),
       st.dictionaries(st.sampled_from(["P", "Q", "V", "W"]),
                       wrapped_values().map(plain), max_size=3))
@settings(max_examples=300, deadline=None)
def test_operations_leave_the_given_bindings_unchanged(pattern, xml, t, g,
                                                       seeded, pattern_vars):
    b = {**plain_bindings(seeded), **pattern_vars}
    before = dict(b)
    node = parse_xml(xml.encode(), "h.xml")
    match_node(pattern, node, b)
    match_children([pattern, PVar("R")], list(node.children), b)
    deep_contains(node, pattern, b)
    match_term(t, plain(g), b)
    assert b == before


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
        assert string_projection(node) == " ".join(
            " ".join(texts_reference(node)).split())
    assert string_projection(doc.children) == " ".join(
        " ".join(t for child in doc.children
                 for t in texts_reference(child)).split())


def test_walk_and_projection_at_any_depth():
    depth = 5000
    doc = parse_xml(b"<s>" * depth + b" x " + b"</s>" * depth, "f.xml")
    assert [type(n).__name__ for n in walk(doc)] == ["Element"] * depth + [
        "Text"]
    assert string_projection(doc) == "x"
    assert deep_contains(doc, PText("x"), B0) == [B0]


def test_match_term_compares_nodes_and_node_lists_by_content():
    root = parse_xml(b"<r><a>x<b/></a>\n<a>x<b/></a>\n<a>y<b/></a></r>", "f")
    first, second, other = root.children
    assert first != second  # as records they differ in their lines
    assert match_term(Var("X"), second, {"X": first}) == {"X": first}
    assert match_term(Var("X"), other, {"X": first}) is None
    assert match_term(Var("X"), (second,), {"X": (first,)}) is not None
    assert match_term(Var("X"), (second, other), {"X": (first,)}) is None
