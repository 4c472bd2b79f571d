"""Position-annotated XML parsing: a small tree builder on stdlib expat.

Names are literal strings (no namespaces); the DTD adds no attribute
defaults, and a reference to any entity but the five predefined ones is an
error, in text and in attribute values alike.  Comments and PIs
are dropped, CDATA becomes its own text node, whitespace-only text is
dropped, and every node keeps the line of its opening construct.

Given a Projection (engine.projection), a skipped element is a placeholder:
it keeps its place, name, attributes and line, and holds only the elements
inside it that head a rule.
"""

from __future__ import annotations

import re
from typing import Union
from xml.parsers import expat

from . import LineError, SemlintError
from .record import Record, SourcePos


class MalformedXml(LineError):
    pass


class EncodingError(SemlintError):
    def __init__(self, file: str, detail: str):
        super().__init__(f"{file}: {detail}")
        self.file = file
        self.detail = detail


# Nodes are records but not frozen ones: nothing hashes a node, and a hash
# would recurse through its subtree.  Bound subtrees are only compared (one
# variable bound twice), by matcher._same, by content and not by line.
class Text(Record):
    __slots__ = ("content", "pos")


class Element(Record):
    __slots__ = ("name", "attrs", "children", "pos")


XmlNode = Union[Element, Text]


# what a parse builds at a child position: a placeholder, the child (its
# children as the row of its name says), or the child's whole subtree
SKIP, KEEP, WHOLE = 0, 1, 2


class Projection(Record):
    __slots__ = (
        "heads",  # always built
        "rows")  # name -> (kinds of the fixed positions, the rest's)


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


def parse_xml(data: bytes, file: str,
              projection: Projection | None = None) -> Element:
    """Parse a UTF-8 XML document into a position-annotated tree.

    With a projection, the root is built, and so is a child of a built
    element whose position is KEEP or WHOLE (then with its subtree), or
    whose name is a head; any other element becomes a placeholder.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(file, f"not valid UTF-8: {exc}") from None
    # "utf-8" overrides whatever encoding the XML declaration names
    parser = expat.ParserCreate("utf-8")
    parser.ordered_attributes = parser.specified_attributes = True
    # open elements as (name, attrs, pos, the parent's child list, resume),
    # where resume is what end() restores (None inside a whole subtree): the
    # parent's row, or the depth inside the enclosing placeholder;
    # `children` collects the innermost open element's children
    stack: list[tuple] = []
    children: list = []
    top = children
    text: list[str] = []
    text_pos = last_pos = SourcePos(file, 1)
    doctype: list[bool] = []
    heads, rows = ((projection.heads, projection.rows) if projection
                   else ((), {}))
    row = ((), KEEP)  # the document's: the root is always built
    depth = 0  # open elements inside the innermost placeholder

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

    def start(name: str, attrs: list[str], resume=None) -> None:
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
                      else (), pos, children, resume))
        children = []

    def end(_) -> None:
        nonlocal children, row, depth
        if text:
            flush()
        name, attrs, pos, parent, resume = stack.pop()
        parent.append(Element(name, attrs, tuple(children), pos))
        children = parent
        if resume is None:  # in a whole subtree
            pass
        elif resume.__class__ is int:
            depth = resume
            mode(start_skipped, end_skipped, None)
        else:
            row = resume
            if parser.StartElementHandler is not start_projected:
                mode(start_projected, end, chars)

    def start_projected(name: str, attrs: list[str]) -> None:
        nonlocal row, depth
        if text:
            flush()
        kinds, rest = row
        kind = kinds[len(children)] if len(children) < len(kinds) else rest
        start(name, attrs, row)
        if kind == WHOLE:
            mode(start, end, chars)
        elif kind == KEEP or name in heads:
            row = rows.get(name, ((), SKIP))
        else:
            depth = 0
            mode(start_skipped, end_skipped, None)

    def start_skipped(name: str, attrs: list[str]) -> None:
        nonlocal row, depth
        if name in heads:
            start(name, attrs, depth)
            row = rows.get(name, ((), SKIP))
            mode(start_projected, end, chars)
        else:
            depth += 1
            if doctype and attrs:
                _check_attr_refs(data, parser.CurrentByteIndex, here())

    def end_skipped(name: str) -> None:
        nonlocal depth
        if depth:
            depth -= 1
        else:
            end(name)  # the placeholder itself

    def mode(on_start, on_end, on_chars) -> None:
        # set in a handler, a None text handler is pyexpat's no-op: skipped
        # text costs no Python call and never reaches default() (where
        # "&amp;" would fail the parse and leave it to the full one)
        parser.StartElementHandler = on_start
        parser.EndElementHandler = on_end
        parser.CharacterDataHandler = on_chars

    def default(data: str) -> None:
        # with a default handler set, expat passes references to internal
        # DTD entities through instead of expanding them; no other text it
        # passes here starts with "&"
        if data.startswith("&"):
            raise MalformedXml(here(), f"bad entity {data}")

    handlers = {"StartElementHandler": start if projection is None
                else start_projected,
                "EndElementHandler": end,
                "CharacterDataHandler": chars, "CommentHandler": flush,
                "ProcessingInstructionHandler": flush,
                "StartCdataSectionHandler": flush,
                "EndCdataSectionHandler": flush, "DefaultHandler": default,
                "StartDoctypeDeclHandler": lambda *_: doctype.append(True)}
    for name, handler in handlers.items():
        setattr(parser, name, handler)
    try:
        parser.Parse(data, True)
        return top[0]
    except MalformedXml:
        if projection is None:
            raise
    except expat.ExpatError as exc:
        if projection is None:
            name, _, open_pos = stack[-1][:3] if stack else ("", None, None)
            pos = SourcePos(file, exc.lineno)
            at = max(parser.ErrorByteIndex, 0)
            found = _TOKEN.match(data, at)[0].decode("utf-8", "replace")
            if exc.code == _CODES[expat.errors.XML_ERROR_TAG_MISMATCH]:
                detail = (f"close tag {name!r} expected, found {found!r} "
                          f"(element opened at line {open_pos.line})")
            elif (exc.code == _CODES[expat.errors.XML_ERROR_NO_ELEMENTS]
                  and name):
                pos, detail = open_pos, f"unterminated element {name!r}"
            elif exc.code == _CODES[expat.errors.XML_ERROR_UNDEFINED_ENTITY]:
                if data.startswith(b"<", at):  # the reference is in an attr
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
        del end, start_projected  # cycles among the handlers
    # a placeholder's subtree is not on the stack, while an error names the
    # innermost open element: the full parse fails with the full message
    return parse_xml(data, file)


def walk(node: XmlNode):
    """Yield node and all descendants in document order, at any depth."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            stack.extend(reversed(node.children))
