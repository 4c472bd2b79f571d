"""Position-annotated XML parsing: a small tree builder on stdlib expat.

Names are literal strings (no namespaces); the DTD adds no attribute
defaults, and a reference to any entity but the five predefined ones is an
error, in text and in attribute values alike.  Comments and PIs
are dropped, CDATA becomes its own text node, whitespace-only text is
dropped, and every node keeps the line of its opening construct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union
from xml.parsers import expat


@dataclass(frozen=True)
class SourcePos:
    file: str
    line: int


class MalformedXml(Exception):
    def __init__(self, pos: SourcePos, detail: str):
        super().__init__(f"{pos.file}:{pos.line}: {detail}")
        self.pos = pos
        self.detail = detail


class EncodingError(Exception):
    def __init__(self, file: str, detail: str):
        super().__init__(f"{file}: {detail}")
        self.file = file
        self.detail = detail


# Nodes are slotted and mutable only because frozen construction costs
# about three times as much per node; treat them as immutable.  They are
# unhashable, and __eq__ still recurses through children: comparing two
# subtrees some 250 levels deep (one variable bound twice) overflows.
@dataclass(slots=True)
class Text:
    content: str
    pos: SourcePos


@dataclass(slots=True)
class Element:
    name: str
    attrs: tuple[tuple[str, str], ...]
    children: tuple["XmlNode", ...]
    pos: SourcePos


XmlNode = Union[Element, Text]

_CODES = expat.errors.codes
_TOKEN = re.compile(rb"[^\s>;]*;?")
_START_TAG = re.compile(rb"""<[^"'>]*(?:(?:"[^"]*"|'[^']*')[^"'>]*)*>""")
# a reference to an entity other than the predefined ones
_ENTITY_REF = re.compile(rb"&(?!(?:amp|lt|gt|quot|apos|#[^;]*);)([^;]*);")
_LINE_BREAK = re.compile(rb"\r\n?|\n")


def _check_attr_refs(data: bytes, at: int, pos: SourcePos) -> None:
    """Reject an entity reference in the start tag at byte `at`, line pos."""
    tag = _START_TAG.match(data, at)[0]
    if ref := _ENTITY_REF.search(tag):
        line = pos.line + len(_LINE_BREAK.findall(tag, 0, ref.start()))
        raise MalformedXml(SourcePos(pos.file, line),
                           f"bad entity &{ref[1].decode('utf-8', 'replace')};")


def parse_xml(data: bytes, file: str) -> Element:
    """Parse a UTF-8 XML document into a position-annotated tree."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(file, f"not valid UTF-8: {exc}") from None
    # "utf-8" overrides whatever encoding the XML declaration names
    parser = expat.ParserCreate("utf-8")
    parser.ordered_attributes = parser.specified_attributes = True
    # open elements as (name, attrs, pos, the parent's child list);
    # `children` collects the innermost open element's children
    stack: list[tuple] = []
    children: list = []
    top = children
    text: list[str] = []
    text_pos = last_pos = SourcePos(file, 1)
    doctype: list[bool] = []

    def here() -> SourcePos:
        # events come in line order: one SourcePos per distinct line
        nonlocal last_pos
        if parser.CurrentLineNumber != last_pos.line:
            last_pos = SourcePos(file, parser.CurrentLineNumber)
        return last_pos

    def flush(*_) -> None:
        if text:
            content = "".join(text)
            text.clear()
            if not content.isspace():
                children.append(Text(content, text_pos))

    def chars(data: str) -> None:
        nonlocal text_pos
        if not text:
            text_pos = (last_pos if parser.CurrentLineNumber == last_pos.line
                        else here())
        text.append(data)

    def start(name: str, attrs: list[str]) -> None:
        nonlocal children
        if text:
            flush()
        pos = (last_pos if parser.CurrentLineNumber == last_pos.line
               else here())
        # after a DOCTYPE expat expands internal entities in attribute
        # values, and drops undefined ones if there is an external subset
        if doctype and attrs:
            _check_attr_refs(data, parser.CurrentByteIndex, pos)
        stack.append((name, tuple(zip(attrs[::2], attrs[1::2])) if attrs
                      else (), pos, children))
        children = []

    def end(_) -> None:
        nonlocal children
        if text:
            flush()
        name, attrs, pos, parent = stack.pop()
        parent.append(Element(name, attrs, tuple(children), pos))
        children = parent

    def default(data: str) -> None:
        # with a default handler set, expat passes references to internal
        # DTD entities through instead of expanding them; no other text it
        # passes here starts with "&"
        if data.startswith("&"):
            raise MalformedXml(here(), f"bad entity {data}")

    handlers = {"StartElementHandler": start, "EndElementHandler": end,
                "CharacterDataHandler": chars, "CommentHandler": flush,
                "ProcessingInstructionHandler": flush,
                "StartCdataSectionHandler": flush,
                "EndCdataSectionHandler": flush, "DefaultHandler": default,
                "StartDoctypeDeclHandler": lambda *_: doctype.append(True)}
    for name, handler in handlers.items():
        setattr(parser, name, handler)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        name, _, open_pos, _ = stack[-1] if stack else ("", None, None, None)
        pos = SourcePos(file, exc.lineno)
        at = max(parser.ErrorByteIndex, 0)
        found = _TOKEN.match(data, at)[0].decode("utf-8", "replace")
        if exc.code == _CODES[expat.errors.XML_ERROR_TAG_MISMATCH]:
            detail = (f"close tag {name!r} expected, found {found!r} "
                      f"(element opened at line {open_pos.line})")
        elif exc.code == _CODES[expat.errors.XML_ERROR_NO_ELEMENTS] and name:
            pos, detail = open_pos, f"unterminated element {name!r}"
        elif exc.code == _CODES[expat.errors.XML_ERROR_UNDEFINED_ENTITY]:
            if data.startswith(b"<", at):  # the reference is in an attribute
                _check_attr_refs(data, at, pos)
            detail = f"bad entity {found}"
        else:
            detail = expat.ErrorString(exc.code)
        raise MalformedXml(pos, detail) from None
    finally:
        # the handlers close over the parser: break that reference cycle
        # now instead of leaving each parse to the cycle collector
        for name in handlers:
            setattr(parser, name, None)
    return top[0]


def walk(node: XmlNode):
    """Yield node and all descendants in document order, at any depth."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            stack.extend(reversed(node.children))
