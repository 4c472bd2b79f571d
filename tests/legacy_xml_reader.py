"""The hand-written XML reader that semlint used before its expat builder.

Kept unchanged as a test-only oracle: the differential tests in
test_xml_frontend.py check that both readers give equal trees (or fail at the
same line) on random well-formed documents.  Not imported by the program.
"""

from __future__ import annotations

import re

from semlint.xml_frontend import (Element, EncodingError, MalformedXml,
                                  SourcePos, Text, XmlNode)

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
# a character reference: ASCII digits, or ASCII hex digits after #x or #X
_CHAR_REF = re.compile(r"#([0-9]+)|#[xX]([0-9a-fA-F]+)")


def _is_xml_char(code: int) -> bool:
    """XML 1.0's Char production: the code points a reference may name."""
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF)


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_REST = _NAME_START | set("0123456789-.")


class _Reader:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.pos = 0
        self.line = 1

    def here(self) -> SourcePos:
        return SourcePos(self.file, self.line)

    def fail(self, detail: str, pos: SourcePos | None = None) -> None:
        raise MalformedXml(pos or self.here(), detail)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + n]
        self.pos += n
        self.line += chunk.count("\n")
        return chunk

    def skip_ws(self) -> None:
        while not self.eof() and self.peek() in " \t\r\n":
            self.advance()

    def expect(self, s: str) -> None:
        if self.peek(len(s)) != s:
            self.fail(f"expected {s!r}")
        self.advance(len(s))

    def skip_until(self, marker: str, what: str) -> str:
        end = self.text.find(marker, self.pos)
        if end < 0:
            self.fail(f"unterminated {what}")
        chunk = self.text[self.pos:end]
        self.advance(end - self.pos + len(marker))
        return chunk

    def read_name(self) -> str:
        if self.eof() or self.peek() not in _NAME_START:
            self.fail("name expected")
        start = self.pos
        while not self.eof() and self.peek() in _NAME_REST:
            self.advance()
        return self.text[start:self.pos]

    def decode_entities(self, raw: str, pos: SourcePos) -> str:
        if "&" not in raw:
            return raw
        out = []
        i = 0
        line = pos.line
        while i < len(raw):
            c = raw[i]
            if c == "\n":
                line += 1
            if c != "&":
                out.append(c)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end < 0 or end - i > 12:
                self.fail("bad entity reference", SourcePos(pos.file, line))
            name = raw[i + 1:end]
            if name in _ENTITIES:
                out.append(_ENTITIES[name])
            elif ref := _CHAR_REF.fullmatch(name):
                code = int(ref[1]) if ref[1] else int(ref[2], 16)
                if not _is_xml_char(code):
                    self.fail(f"bad entity &{name};", SourcePos(pos.file, line))
                out.append(chr(code))
            else:
                self.fail(f"bad entity &{name};", SourcePos(pos.file, line))
            i = end + 1
        return "".join(out)

    def skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and a DOCTYPE outside the root."""
        while True:
            self.skip_ws()
            if self.peek(4) == "<!--":
                self.advance(4)
                self.skip_until("-->", "comment")
            elif self.peek(2) == "<?":
                self.advance(2)
                self.skip_until("?>", "processing instruction")
            elif self.peek(9).upper() == "<!DOCTYPE":
                self.advance(9)
                depth = 1
                while depth:
                    if self.eof():
                        self.fail("unterminated DOCTYPE")
                    c = self.advance()
                    if c == "<":
                        depth += 1
                    elif c == ">":
                        depth -= 1
            else:
                return

    def read_attrs(self, elem_pos: SourcePos) -> tuple[tuple[str, str], ...]:
        attrs: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            self.skip_ws()
            if self.eof() or self.peek() in "/>":
                return tuple(attrs)
            name = self.read_name()
            if name in seen:
                self.fail(f"duplicate attribute {name!r}", elem_pos)
            seen.add(name)
            self.skip_ws()
            self.expect("=")
            self.skip_ws()
            quote = self.peek()
            if quote not in "\"'":
                self.fail(f"quoted value expected for attribute {name!r}")
            value_pos = self.here()
            self.advance()
            raw = self.skip_until(quote, f"attribute {name!r}")
            attrs.append((name, self.decode_entities(raw, value_pos)))

    def read_element(self) -> Element:
        pos = self.here()
        self.expect("<")
        name = self.read_name()
        attrs = self.read_attrs(pos)
        if self.peek(2) == "/>":
            self.advance(2)
            return Element(name, attrs, (), pos)
        self.expect(">")
        children = self.read_content(name, pos)
        return Element(name, attrs, children, pos)

    def read_content(self, name: str, open_pos: SourcePos) -> tuple[XmlNode, ...]:
        children: list[XmlNode] = []

        def add_text(raw: str, pos: SourcePos) -> None:
            decoded = self.decode_entities(raw, pos)
            if decoded.strip():
                children.append(Text(decoded, pos))

        while True:
            if self.eof():
                self.fail(f"unterminated element {name!r}", open_pos)
            if self.peek() == "<":
                if self.peek(4) == "<!--":
                    self.advance(4)
                    self.skip_until("-->", "comment")
                elif self.peek(9) == "<![CDATA[":
                    self.advance(9)
                    pos = self.here()
                    raw = self.skip_until("]]>", "CDATA section")
                    if raw.strip():
                        children.append(Text(raw, pos))
                elif self.peek(2) == "<?":
                    self.advance(2)
                    self.skip_until("?>", "processing instruction")
                elif self.peek(2) == "</":
                    close_pos = self.here()
                    self.advance(2)
                    close_name = self.read_name()
                    if close_name != name:
                        self.fail(
                            f"close tag {name!r} expected, found {close_name!r}"
                            f" (element opened at line {open_pos.line})",
                            close_pos)
                    self.skip_ws()
                    self.expect(">")
                    return tuple(children)
                else:
                    children.append(self.read_element())
            else:
                pos = self.here()
                end = self.text.find("<", self.pos)
                if end < 0:
                    end = len(self.text)
                add_text(self.advance(end - self.pos), pos)


def parse_xml(data: bytes, file: str) -> Element:
    """Parse a UTF-8 XML document into a position-annotated tree."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(file, f"not valid UTF-8: {exc}") from None
    if text.startswith("﻿"):
        text = text[1:]
    reader = _Reader(text, file)
    reader.skip_misc()
    if reader.eof() or reader.peek() != "<":
        reader.fail("root element expected")
    root = reader.read_element()
    reader.skip_misc()
    if not reader.eof():
        reader.fail("content after root element")
    return root
