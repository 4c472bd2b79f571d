"""The char-at-a-time rule lexer that semlint used before its `re` scanner.

Kept unchanged as a test-only oracle: the differential tests in
test_tokenize.py check that both lexers give equal token lists (or equal
LexError text) on random and malformed rule files.  Not imported by the
program.
"""

from __future__ import annotations

from semlint.dsl_parser import LexError, Token, _is_name_rest
from semlint.record import SourcePos


class _Lexer:
    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.pos = 0
        self.line = 1
        self.depth = 0
        self.in_tag = False
        self.tag_kind = ""      # open | close | var
        self.tokens: list[Token] = []

    def here(self) -> SourcePos:
        return SourcePos(self.file, self.line)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + n]
        self.pos += n
        self.line += chunk.count("\n")
        return chunk

    def emit(self, kind: str, lexeme: str, pos: SourcePos) -> None:
        self.tokens.append(Token(kind, lexeme, pos))

    def run(self) -> list[Token]:
        while True:
            if self.in_tag:
                self.lex_tag()
            elif self.depth > 0:
                self.lex_content()
            else:
                if not self.lex_term():
                    break
        self.emit("EOF", "", self.here())
        return self.tokens

    def skip_ws(self) -> None:
        while self.peek() in " \t\r\n" and self.peek():
            self.advance()

    def lex_angle(self) -> None:
        """Dispatch a construct starting with '<' (any mode)."""
        pos = self.here()
        two = self.peek(2)
        if two == "<$":
            self.advance(2)
            self.emit("<$", "<$", pos)
            self.in_tag, self.tag_kind = True, "var"
        elif two == "</":
            self.advance(2)
            self.emit("</", "</", pos)
            self.in_tag, self.tag_kind = True, "close"
        elif two == "<*" and self.depth == 0:
            self.advance(2)
            self.emit("<*", "<*", pos)
        else:
            self.advance(1)
            self.emit("<", "<", pos)
            self.in_tag, self.tag_kind = True, "open"

    def lex_term(self) -> bool:
        self.skip_ws()
        if not self.peek():
            return False
        pos = self.here()
        c = self.peek()
        if c == "<":
            self.lex_angle()
            return True
        for punct in ("=>", ":=", "->"):
            if self.peek(2) == punct:
                self.advance(2)
                self.emit(punct, punct, pos)
                return True
        if c in "?/&;(),=$":
            self.advance()
            self.emit(c, c, pos)
            return True
        if c == '"':
            self.lex_string()
            return True
        if c.isidentifier():
            self.lex_name()
            return True
        raise LexError(pos, f"unexpected character {c!r}")

    def lex_content(self) -> None:
        if not self.peek():
            raise LexError(self.here(), "unterminated element content "
                                        "(missing close tag)")
        if self.peek() == "<":
            self.lex_angle()
            return
        pos = self.here()
        end = self.text.find("<", self.pos)
        if end < 0:
            end = len(self.text)
        raw = self.advance(end - self.pos)
        if raw.strip():
            self.emit("TEXT", raw.strip(), pos)

    def lex_tag(self) -> None:
        self.skip_ws()
        pos = self.here()
        c = self.peek()
        if not c:
            raise LexError(pos, "unterminated tag")
        if self.peek(2) == "/>":
            self.advance(2)
            self.emit("/>", "/>", pos)
            self.in_tag = False
        elif c == ">":
            self.advance()
            self.emit(">", ">", pos)
            self.in_tag = False
            if self.tag_kind == "open":
                self.depth += 1
            elif self.tag_kind == "close":
                self.depth = max(self.depth - 1, 0)
        elif c == "=":
            self.advance()
            self.emit("=", "=", pos)
        elif c == "$":
            self.advance()
            self.emit("$", "$", pos)
        elif c == '"':
            self.lex_string()
        elif c.isidentifier():
            self.lex_name()
        else:
            raise LexError(pos, f"unexpected character {c!r} in tag")

    def lex_name(self) -> None:
        pos = self.here()
        start = self.pos
        while self.peek() and _is_name_rest(self.peek()):
            # longest match, but never swallow the '-' of '->'
            if self.peek(2) == "->":
                break
            self.advance()
        self.emit("NAME", self.text[start:self.pos], pos)

    def lex_string(self) -> None:
        pos = self.here()
        self.advance()  # opening quote
        out = []
        while True:
            c = self.peek()
            if not c:
                raise LexError(pos, "unterminated string")
            self.advance()
            if c == '"':
                break
            if c == "\\" and self.peek() in ('"', "\\"):
                out.append(self.advance())
            else:
                out.append(c)
        self.emit("STRING", "".join(out), pos)


def tokenize(text: str, file: str) -> list[Token]:
    return _Lexer(text, file).run()
