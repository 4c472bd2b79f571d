import pytest

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
    root = parse_xml(b'<a t="&#065;&#X42;&#x0043;"/>', "f.xml")
    assert root.attrs == (("t", "ABC"),)


def test_bad_entity_reported_with_position():
    with pytest.raises(MalformedXml) as exc:
        parse_xml(b"<a>\n&unknown;</a>", "f.xml")
    assert exc.value.pos.line == 2


@pytest.mark.parametrize("ref", [
    "&#xD800;", "&#x7FFFFFFFF;", "&#0;",
    # not an ASCII (hex) digit run; int() reads the first seven as 65
    "&#6_5;", "&# 65;", "&#+65;", "&#x 41;", "&#65 ;", "&#\u0666\u0665;",
    "&#x\uff14\uff11;", "&#;", "&#x;", "&#x-41;"])
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
