"""Tokenizer and parser for rule files.

The lexer switches between three modes driven by element nesting: term mode
(top level, conditions, actions), tag mode (inside ``<name ...>``) and
content mode (between an open and its close tag), where raw text runs
become TEXT tokens.
"""

from __future__ import annotations

import hashlib

from . import SemlintError
from .record import Record, SourcePos
from .rule_ast import (ANON, Assert, Assign, AttrPattern, Condition, Contains,
                       EnvRule, Eq, PAnon, PElem, PEmptyElem, PText, PVar,
                       Pattern, Polarity, Rule, RuleSet, Test, TestRule,
                       consequence_vars, pattern_vars)
from .terms import Functor, Term, Var, term_vars

PREDEFINED_VARS = frozenset({"SourceFile", "SourceLine"})
MAX_NESTING = 200  # the matcher and the cache recurse once per level


class LexError(SemlintError):
    def __init__(self, pos: SourcePos, detail: str):
        super().__init__(f"{pos.file}:{pos.line}: {detail}")
        self.pos = pos
        self.detail = detail


class ParseError(SemlintError):
    def __init__(self, pos: SourcePos, detail: str):
        super().__init__(f"{pos.file}:{pos.line}: {detail}")
        self.pos = pos
        self.detail = detail


class Token(Record, frozen=True):
    __slots__ = ("kind", "lexeme", "pos")

    def __init__(self, kind: str, lexeme: str, pos: SourcePos):
        self.kind = kind    # punctuation lexeme, or NAME / STRING / TEXT / EOF
        self.lexeme = lexeme
        self.pos = pos


def _is_name_rest(c: str) -> bool:
    # a name starts as a Python identifier does (c.isidentifier()) and goes
    # on with identifier characters, '-' and '.': Unicode letters included,
    # so a rule can name any element parse_xml reads
    return c in "-." or ("_" + c).isidentifier()


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


class _Parser:
    def __init__(self, tokens: list[Token], start_index: int):
        self.tokens = tokens
        self.i = 0
        self.next_index = start_index

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def peek_kind(self, offset: int = 0) -> str:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j].kind

    def accept(self, kind: str) -> Token | None:
        if self.cur.kind == kind:
            tok = self.cur
            self.i += 1
            return tok
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.accept(kind)
        if tok is None:
            found = self.cur.lexeme or self.cur.kind
            detail = f"expected {what or kind!r}, found {found!r}"
            raise ParseError(self.cur.pos, detail)
        return tok

    def parse_rules(self) -> list[Rule]:
        rules = []
        while self.cur.kind != "EOF":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        pos = self.cur.pos
        skipped = self.accept("<*") is not None
        pattern = self.parse_element(head=True)
        if isinstance(pattern, (PVar, PAnon)):
            raise ParseError(pos, "rule head must be an element or text, "
                                  "not a bare variable")
        conditions: list[Condition] = []
        while self.accept("&"):
            conditions.append(self.parse_condition())
        if self.accept("=>"):
            actions = [self.parse_action()]
            while self.accept("&"):
                actions.append(self.parse_action())
            body: EnvRule | TestRule = EnvRule(tuple(actions))
        elif self.accept("?"):
            goal = self.parse_term()
            if not isinstance(goal, Functor):
                raise ParseError(pos, "test goal must be a predicate term")
            if self.accept("/"):
                polarity = Polarity.IF_ABSENT
            elif self.accept("->"):
                polarity = Polarity.IF_PRESENT
            else:
                raise ParseError(self.cur.pos, "expected '/' or '->' after "
                                               "test goal")
            test = Test(polarity, goal, self.parse_consequence())
            body = TestRule(test, tuple(sorted({
                *term_vars(goal), *consequence_vars(test.consequence),
                *PREDEFINED_VARS})))
        else:
            raise ParseError(self.cur.pos, "expected '=>' or '?' after "
                                           "rule pattern")
        self.expect(";")
        rule = Rule(self.next_index, pattern, tuple(conditions), body,
                    skipped, pos)
        self.validate(rule)
        self.next_index += 1
        return rule

    def parse_condition(self) -> Condition:
        if self.accept("$"):
            var = self.expect("NAME", "variable name").lexeme
            kw = self.expect("NAME", "'contains'")
            if kw.lexeme != "contains":
                raise ParseError(kw.pos, f"expected 'contains', found "
                                         f"{kw.lexeme!r}")
            return Contains(var, self.parse_element())
        name = self.expect("NAME", "environment variable name").lexeme
        self.expect("=")
        return Eq(name, self.parse_term())

    def parse_action(self):
        if self.cur.kind == "NAME" and self.peek_kind(1) == ":=":
            name = self.expect("NAME").lexeme
            self.expect(":=")
            return Assign(name, self.parse_term())
        pos = self.cur.pos
        term = self.parse_term()
        if not isinstance(term, Functor):
            raise ParseError(pos, "assertion must be a predicate term")
        return Assert(term)

    def parse_consequence(self):
        if self.cur.kind in ("<", "<$", "TEXT"):
            return self.parse_element()
        return self.parse_term()

    def check_depth(self, depth: int) -> None:
        if depth > MAX_NESTING:
            raise ParseError(self.cur.pos,
                             f"nested deeper than {MAX_NESTING} levels")

    def parse_term(self, depth: int = 1) -> Term:
        self.check_depth(depth)
        tok = self.cur
        if self.accept("STRING"):
            return tok.lexeme
        if self.accept("$"):
            return Var(self.expect("NAME", "variable name").lexeme)
        name = self.expect("NAME", "term").lexeme
        self.expect("(")
        args: list[Term] = []
        if self.cur.kind != ")":
            args.append(self.parse_term(depth + 1))
            while self.accept(","):
                args.append(self.parse_term(depth + 1))
        self.expect(")")
        return Functor(name, tuple(args))

    def parse_element(self, head: bool = False, depth: int = 1) -> Pattern:
        self.check_depth(depth)
        tok = self.cur
        if self.accept("TEXT"):
            return PText(tok.lexeme)
        if head and self.accept("STRING"):
            return PText(tok.lexeme)
        if self.accept("<$"):
            name = self.expect("NAME", "variable name").lexeme
            self.expect(">")
            return PAnon() if name == ANON else PVar(name)
        open_tok = self.expect("<", "pattern")
        name = self.expect("NAME", "element name").lexeme
        attrs = self.parse_attrs(open_tok.pos)
        if self.accept("/>"):
            return PEmptyElem(name, attrs)
        self.expect(">")
        children: list[Pattern] = []
        while self.cur.kind in ("<", "<$", "TEXT"):
            children.append(self.parse_element(depth=depth + 1))
        close = self.expect("</", f"content or close tag for <{name}>")
        close_name = self.expect("NAME", "element name").lexeme
        if close_name != name:
            raise ParseError(
                close.pos,
                f"close tag {close_name!r} does not match {name!r} opened at "
                f"line {open_tok.pos.line}")
        self.expect(">")
        return PElem(name, attrs, tuple(children))

    def parse_attrs(self, elem_pos: SourcePos) -> tuple[AttrPattern, ...]:
        attrs: list[AttrPattern] = []
        seen: set[str] = set()
        while self.cur.kind == "NAME":
            name_tok = self.expect("NAME")
            if name_tok.lexeme in seen:
                raise ParseError(name_tok.pos,
                                 f"duplicate attribute {name_tok.lexeme!r}")
            seen.add(name_tok.lexeme)
            self.expect("=")
            if self.accept("$"):
                var = self.expect("NAME", "variable name").lexeme
                value = None if var == ANON else Var(var)
            else:
                value = self.expect("STRING", "attribute value").lexeme
            attrs.append(AttrPattern(name_tok.lexeme, value))
        return tuple(attrs)

    def validate(self, rule: Rule) -> None:
        bound = set(pattern_vars(rule.pattern)) | PREDEFINED_VARS
        for cond in rule.conditions:
            if isinstance(cond, Contains):
                if cond.var not in bound:
                    raise ParseError(
                        rule.pos, f"contains variable ${cond.var} is not "
                                  f"bound by the rule pattern")
                bound |= set(pattern_vars(cond.pattern))
            else:
                bound |= set(term_vars(cond.rhs))
        if isinstance(rule.body, EnvRule):
            for act in rule.body.actions:
                term = act.value if isinstance(act, Assign) else act.fact
                self.check_bound(rule, term_vars(term), bound)
        else:
            test = rule.body.test
            # an if-absent message is given when the goal has no solution,
            # which binds nothing
            if test.polarity is Polarity.IF_PRESENT:
                bound |= set(term_vars(test.goal))
            self.check_bound(rule, consequence_vars(test.consequence), bound)

    def check_bound(self, rule: Rule, names, bound: set[str]) -> None:
        for name in names:
            if name not in bound:
                raise ParseError(rule.pos,
                                 f"variable ${name} is not bound by the "
                                 f"rule's pattern or conditions")


def parse_rule_texts(pairs: list[tuple[str, str]]) -> RuleSet:
    """Parse one ruleset from (text, file) pairs, a single namespace.

    Rule indices run densely across files in the order given.
    """
    digest = hashlib.sha256()
    rules: list[Rule] = []
    for text, file in pairs:
        digest.update(text.encode("utf-8"))
        parser = _Parser(tokenize(text, file), start_index=len(rules))
        rules.extend(parser.parse_rules())
    return RuleSet(tuple(rules), digest.hexdigest())


def parse_rules(text: str, file: str) -> RuleSet:
    return parse_rule_texts([(text, file)])
