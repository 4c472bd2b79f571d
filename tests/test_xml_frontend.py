import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_xml_reader
from semlint.xml_frontend import (Element, EncodingError, MalformedXml,
                                  SourcePos, Text, parse_xml, walk)


def test_minimal_document():
    root = parse_xml(b"<a/>", "f.xml")
    assert root == Element("a", (), (), SourcePos("f.xml", 1))


def test_citation_element_attributes_and_children():
    doc = b"""<citation type="thesis" year="2003">
  <title> Some Thesis </title>
  <author> A. Author </author>
  <school> Somewhere </school>
  <year> 2003 </year>
</citation>"""
    root = parse_xml(doc, "cit.xml")
    assert root.name == "citation"
    assert ("year", "2003") in root.attrs
    assert ("type", "thesis") in root.attrs
    names = [c.name for c in root.children]
    assert names == ["title", "author", "school", "year"]
    assert root.children[0].pos.line == 2
    assert root.children[3].pos.line == 5


def test_close_tag_mismatch():
    with pytest.raises(MalformedXml) as exc:
        parse_xml(b"<a><b></a>", "f.xml")
    assert "close tag 'b' expected" in str(exc.value)
    assert exc.value.pos.line == 1


def test_whitespace_only_text_is_stripped():
    root = parse_xml(b"<a> \n </a>", "f.xml")
    assert root.children == ()


def test_mixed_content_kept_in_order():
    root = parse_xml(b"<p>hello <b>world</b>!</p>", "f.xml")
    kinds = [type(c).__name__ for c in root.children]
    assert kinds == ["Text", "Element", "Text"]
    assert root.children[0].content == "hello "
    assert root.children[2].content == "!"


def test_entity_decoding_in_text_and_attrs():
    root = parse_xml(b'<a t="x &amp; y">1 &lt; 2 &gt; 0 &quot;&apos;</a>',
                     "f.xml")
    assert root.attrs == (("t", "x & y"),)
    assert root.children[0].content == "1 < 2 > 0 \"'"


def test_numeric_character_references():
    root = parse_xml(b"<a>&#65;&#x42;</a>", "f.xml")
    assert root.children[0].content == "AB"
    root = parse_xml(b'<a t="&#065;&#x42;&#x0043;"/>', "f.xml")
    assert root.attrs == (("t", "ABC"),)


def test_bad_entity_reported_with_position():
    with pytest.raises(MalformedXml) as exc:
        parse_xml(b"<a>\n&unknown;</a>", "f.xml")
    assert exc.value.pos.line == 2


@pytest.mark.parametrize("prolog", [
    "", "<!DOCTYPE r>", '<!DOCTYPE r SYSTEM "r.dtd">',
    '<!DOCTYPE r [<!ENTITY eacute "x">]>'],
    ids=["none", "doctype", "system-dtd", "internal-entity"])
@pytest.mark.parametrize("where", ["attr", "text"])
def test_undefined_or_dtd_entity_rejected(prolog, where):
    # an external DTD could declare it, and expat would drop it silently
    # from an attribute value; an internal one it would expand there
    body = ('<b\n  u="&amp;" t="&#233;t\r\n&eacute;"/>' if where == "attr"
            else "&#233;t\n&eacute;")
    doc = f"{prolog}\n<r>\n{body}</r>".encode()
    with pytest.raises(MalformedXml) as exc:
        parse_xml(doc, "f.xml")
    assert str(exc.value) == f"f.xml:{5 if where == 'attr' else 4}: " \
                             "bad entity &eacute;"


@pytest.mark.parametrize("ref", [
    "&#xD800;", "&#x7FFFFFFFF;", "&#0;",
    # not an ASCII (hex) digit run; int() reads the first seven as 65
    "&#6_5;", "&# 65;", "&#+65;", "&#x 41;", "&#65 ;", "&#\u0666\u0665;",
    "&#x\uff14\uff11;", "&#;", "&#x;", "&#x-41;",
    # XML 1.0 section 4.1 spells a hex reference with a lowercase x only
    "&#X42;"])
@pytest.mark.parametrize("where", ["attr", "text"])
def test_reference_outside_xml_chars_rejected(ref, where):
    doc = (f'<a>\n<b t="{ref}"/></a>' if where == "attr"
           else f"<a>\n{ref}</a>")
    with pytest.raises(MalformedXml) as exc:
        parse_xml(doc.encode(), "f.xml")
    assert str(exc.value).startswith("f.xml:2: ")


def test_duplicate_attribute_rejected():
    with pytest.raises(MalformedXml) as exc:
        parse_xml(b'<a x="1" x="2"/>', "f.xml")
    assert "duplicate attribute" in exc.value.detail


def test_unterminated_element():
    with pytest.raises(MalformedXml):
        parse_xml(b"<a><b></b>", "f.xml")


def test_not_utf8_raises_encoding_error():
    with pytest.raises(EncodingError):
        parse_xml("<a>é</a>".encode("latin-1"), "f.xml")


def test_comments_pis_doctype_discarded():
    doc = (b'<?xml version="1.0"?>\n<!DOCTYPE a>\n<!-- c -->\n'
           b"<a><!-- inner --><?pi data?><b/></a>\n<!-- trailing -->")
    root = parse_xml(doc, "f.xml")
    assert [c.name for c in root.children] == ["b"]
    assert root.pos.line == 4


def test_cdata_becomes_text():
    root = parse_xml(b"<a><![CDATA[x < y & z]]></a>", "f.xml")
    assert root.children == (Text("x < y & z", SourcePos("f.xml", 1)),)


def test_content_after_root_rejected():
    with pytest.raises(MalformedXml):
        parse_xml(b"<a/><b/>", "f.xml")


def test_position_fidelity_generated_corpus():
    # one element per line; the parser must report exactly that line
    names = [f"e{i}" for i in range(40)]
    lines = ["<root>"]
    for name in names:
        lines.append(f"<{name}>text of {name}</{name}>")
    lines.append("</root>")
    root = parse_xml("\n".join(lines).encode(), "gen.xml")
    for i, child in enumerate(root.children):
        assert child.pos.line == i + 2
        assert child.children[0].pos.line == i + 2


def test_parse_is_deterministic():
    data = b'<a x="1"><b>t</b> tail <c/></a>'
    assert parse_xml(data, "f.xml") == parse_xml(data, "f.xml")


def test_walk_document_order():
    root = parse_xml(b"<a><b><c/></b><d/></a>", "f.xml")
    assert [n.name for n in walk(root)] == ["a", "b", "c", "d"]


def test_close_tag_mismatch_names_both_tags_and_the_open_line():
    with pytest.raises(MalformedXml) as exc:
        parse_xml(b"<a>\n<b>\n</a>", "f.xml")
    assert exc.value.pos.line == 3
    assert exc.value.detail == ("close tag 'b' expected, found 'a' "
                                "(element opened at line 2)")


def test_unterminated_element_reported_at_its_opening_line():
    with pytest.raises(MalformedXml) as exc:
        parse_xml(b"<a>\n<b>\ntext", "f.xml")
    assert exc.value.pos.line == 2
    assert exc.value.detail == "unterminated element 'b'"


@pytest.mark.parametrize("body", ["<a>\n&e;</a>", '<a>\n<b t="&e;"/></a>'],
                         ids=["text", "attr"])
def test_internal_dtd_entity_is_not_expanded(body):
    doc = f'<!DOCTYPE a [<!ENTITY e "x">]>\n{body}'.encode()
    with pytest.raises(MalformedXml) as exc:
        parse_xml(doc, "f.xml")
    assert str(exc.value) == "f.xml:3: bad entity &e;"


def test_attlist_defaults_are_not_added():
    doc = b'<!DOCTYPE a [<!ATTLIST a t CDATA "d">]><a u="1"/>'
    assert parse_xml(doc, "f.xml").attrs == (("u", "1"),)


def test_declared_encoding_is_overridden_by_utf8():
    doc = '<?xml version="1.0" encoding="latin-1"?><a>\u00e9</a>'.encode()
    assert parse_xml(doc, "f.xml").children[0].content == "\u00e9"


def test_text_line_is_where_the_text_starts():
    root = parse_xml(b"<a>\n\nfoo<b/></a>", "f.xml")
    assert root.children[0] == Text("\n\nfoo", SourcePos("f.xml", 1))


def test_one_position_object_per_line():
    root = parse_xml(b"<a><b>x</b>\n<c/></a>", "f.xml")
    b, c = root.children
    assert root.pos is b.pos is b.children[0].pos
    assert c.pos.line == 2


# -- where expat follows XML 1.0 and the hand-written reader did not ----------

def test_crlf_and_lone_cr_become_line_feeds():
    root = parse_xml(b"<a>x\r\ny\rz<b/></a>", "f.xml")
    assert root.children[0].content == "x\ny\nz"
    assert root.children[1].pos.line == 3


def test_tab_and_newline_in_attribute_value_become_spaces():
    assert parse_xml(b"<a t='x\ty\nz'/>", "f.xml").attrs == (("t", "x y z"),)


def test_non_ascii_names_accepted():
    root = parse_xml("<\u00e9 \u00e1='1'/>".encode(), "f.xml")
    assert (root.name, root.attrs) == ("\u00e9", (("\u00e1", "1"),))


@pytest.mark.parametrize("doc", [
    "<a>\n<b t='<'/></a>",                 # '<' in an attribute value
    "<a>\n]]></a>",                        # ']]>' in text
    "<a>\n\x01</a>",                       # a C0 control character
    "<a>\n<!-- x -- y --></a>",            # '--' inside a comment
    "\n <?xml version='1.0'?><a/>",        # whitespace before '<?xml'
    "<a>\n<?xml x?></a>",                  # an XML declaration in content
    "\n<!doctype a><a/>",                  # lowercase DOCTYPE
    "<a>\n<b x='1'y='2'/></a>",            # no space between attributes
], ids=["lt-in-attr", "cdata-end-in-text", "c0-control", "double-hyphen",
        "space-before-xmldecl", "xmldecl-in-content", "lowercase-doctype",
        "attrs-unseparated"])
def test_not_well_formed_rejected(doc):
    with pytest.raises(MalformedXml) as exc:
        parse_xml(doc.encode(), "f.xml")
    assert exc.value.pos.line == 2


# -- differential test against the hand-written reader -------------------------

_NAMES = st.builds(lambda a, b: a + b, st.sampled_from("abqZ_"),
                   st.text("ab1.-", max_size=3))
# rarely, a reference to an entity that is undefined or declared in the DTD
_REFS = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;",
         "&#233;", "&#x1F600;"] * 4 + ["&eacute;", "&e;"]
_TEXT = st.lists(st.one_of(st.text("ab Z\u00e9>'\"\n\t", min_size=1,
                                   max_size=6),
                           st.sampled_from(_REFS)),
                 min_size=1, max_size=4).map("".join)
_VALUE = st.lists(st.one_of(st.text("ab Z\u00e9>'", max_size=5),
                            st.sampled_from(_REFS)), max_size=3).map("".join)
# whitespace between two tags, where CR and CRLF never reach a text node
_GAP = st.sampled_from(["", " ", "\n", "\r\n", "\r\n\t", "\n\n  "])
_COMMENT = st.text("ab \n", max_size=6).map(lambda t: f"<!--{t}-->")
_PI = st.builds(lambda target, data: f"<?{target} {data}?>",
                _NAMES, st.text("ab =\n", max_size=6))


@st.composite
def _element(draw, depth=0):
    """A well-formed element as a list of pieces (tags, text, misc)."""
    name = draw(_NAMES)
    attrs = draw(st.dictionaries(_NAMES, _VALUE, max_size=3))
    start = f"<{name}" + "".join(f' {k}="{v}"' for k, v in attrs.items())
    kinds = ["text", "cdata", "comment", "pi"] + ["elem"] * (depth < 3)
    children = draw(st.lists(st.sampled_from(kinds), max_size=5))
    if not children and draw(st.booleans()):
        return [start + "/>"]
    pieces = [start + ">"]
    for before, kind in zip(["tag"] + children, children):
        if "text" not in (before, kind):
            pieces.append(draw(_GAP))
        if kind == "text":
            pieces.append(draw(_TEXT))
        elif kind == "cdata":
            pieces.append("<![CDATA[" + draw(_TEXT).replace("]", "") + "]]>")
        elif kind == "comment":
            pieces.append(draw(_COMMENT))
        elif kind == "pi":
            pieces.append(draw(_PI))
        else:
            pieces.extend(draw(_element(depth + 1)))
    if children[-1:] != ["text"]:
        pieces.append(draw(_GAP))
    return pieces + [f"</{name}>"]


@st.composite
def _documents(draw):
    """(bytes, bytes cut inside the root element) of a random document."""
    prolog = [draw(st.sampled_from(["", '<?xml version="1.0"?>']))]
    prolog += draw(st.lists(st.one_of(_GAP, _COMMENT, _PI), max_size=3))
    prolog.append(draw(st.sampled_from(
        ["", "<!DOCTYPE r>", '<!DOCTYPE r SYSTEM "r.dtd">',
         "<!DOCTYPE r [<!ELEMENT r ANY>]>",
         '<!DOCTYPE r [<!ENTITY e "x">]>'])))
    prolog.append(draw(_GAP))
    root = draw(_element())
    epilog = draw(st.lists(st.one_of(_GAP, _COMMENT, _PI), max_size=3))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    cut = draw(st.integers(1, max(1, len(root) - 1)))
    head = bom + "".join(prolog)
    return ((head + "".join(root + epilog)).encode(),
            (head + "".join(root[:cut])).encode())


def _outcome(parse, data):
    try:
        return parse(data, "f.xml")
    except MalformedXml as exc:
        return ("MalformedXml", exc.pos.line)


@given(_documents())
@settings(max_examples=400, deadline=None)
def test_expat_builder_matches_legacy_reader(docs):
    whole, truncated = docs
    assert (_outcome(parse_xml, whole)
            == _outcome(legacy_xml_reader.parse_xml, whole))
    if len(truncated) < len(whole):
        assert (_outcome(parse_xml, truncated)
                == _outcome(legacy_xml_reader.parse_xml, truncated))
