"""Tokenizer and parser for rule files.

The lexer switches between three modes driven by element nesting: term mode
(top level, conditions, actions), tag mode (inside ``<name ...>``) and
content mode (between an open and its close tag), where raw text runs
become TEXT tokens.
"""

from __future__ import annotations

import re

from . import BUILTIN_MODES, LineError
from .record import POSITION_VARS, Record, SourcePos
from .rule_ast import (ANON, Assign, AttrPattern, Condition, Contains, EnvRule,
                       Eq, PAnon, PElem, PEmptyElem, PText, PVar, Pattern,
                       Polarity, Rule, RuleSet, TestRule, compile_consequence,
                       pattern_vars)
from .terms import Functor, Term, Var, is_ground, term_to_text, term_vars

MAX_NESTING = 200  # the matcher and the cache recurse once per level


class LexError(LineError):
    pass


class ParseError(LineError):
    pass


class Token(Record, frozen=True):
    __slots__ = (
        "kind",  # punctuation lexeme, or NAME / STRING / TEXT / EOF
        "lexeme", "pos")


def _is_name_rest(c: str) -> bool:
    # a name starts as a Python identifier does (c.isidentifier()) and goes
    # on with identifier characters, '-' and '.': Unicode letters included,
    # so a rule can name any element parse_xml reads
    return c in "-." or ("_" + c).isidentifier()


_WS = re.compile(r"[ \t\r\n]*")
# each mode's punctuation, longest first; '<*' only where no element is open
_TERM = re.compile(r"<[$/*]?|=>|:=|->|[?/&;(),=$]")
_TAG = re.compile(r"/>|[>=$]")
_CONTENT = re.compile(r"<[$/]?")
# one reading per backslash: \" and \\ are escapes, any other is itself
_STRING = re.compile(r'"((?:[^"\\]|\\["\\]|\\(?!["\\]))*)"')
_ESCAPE = re.compile(r'\\(["\\])')
# a superset of the name rule: _is_name_rest rejects some non-ASCII ones
_NAME = re.compile(r"(?:[\w.]|[^\x00-\x7f]|-(?!>))*")
_TEXT = re.compile(r"[^<]*")
# the depth change made by the '>' of a tag that each of these opens
_OPENS = {"<": 1, "</": -1, "<$": 0}


def tokenize(text: str, file: str) -> list[Token]:
    """All tokens of a rule file, EOF last: a LexError anywhere in the
    file is raised before any parse error can be."""
    tokens: list[Token] = []
    depth = 0       # open elements
    tag = None      # inside a tag: the depth change its '>' makes
    pos = seen = 0  # newlines are counted up to seen
    line = 1
    at = SourcePos(file, line)  # shared by the tokens of one line
    while True:
        content = depth and tag is None
        if not content:
            pos = _WS.match(text, pos).end()
        newlines = text.count("\n", seen, pos)
        if newlines:
            line += newlines
            at = SourcePos(file, line)
        seen = pos
        if pos == len(text):
            if tag is not None:
                raise LexError(at, "unterminated tag")
            if depth:
                raise LexError(at, "unterminated element content "
                                   "(missing close tag)")
            tokens.append(Token("EOF", "", at))
            return tokens
        c = text[pos]
        if content and c != "<":
            pos = _TEXT.match(text, pos).end()
            run = text[seen:pos].strip()
            if run:
                tokens.append(Token("TEXT", run, at))
        elif c == '"':
            m = _STRING.match(text, pos)
            if m is None:
                raise LexError(at, "unterminated string")
            tokens.append(Token("STRING", _ESCAPE.sub(r"\1", m[1]), at))
            pos = m.end()
        elif c.isidentifier():
            end = _NAME.match(text, pos + 1).end()
            name = text[pos:end]
            if not name.isascii():
                name = name[:next((i for i in range(1, len(name))
                                   if not _is_name_rest(name[i])), None)]
            tokens.append(Token("NAME", name, at))
            pos += len(name)
        else:
            m = (_TAG if tag is not None else _CONTENT if depth
                 else _TERM).match(text, pos)
            if m is None:
                where = " in tag" if tag is not None else ""
                raise LexError(at, f"unexpected character {c!r}{where}")
            punct = m[0]
            tokens.append(Token(punct, punct, at))
            pos = m.end()
            if punct in _OPENS:
                tag = _OPENS[punct]
            elif punct == ">":
                depth, tag = max(depth + tag, 0), None
            elif punct == "/>":
                tag = None


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
        elif self.accept("?"):
            actions = None
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
            consequence = self.parse_consequence()
            template = compile_consequence(consequence)
        else:
            raise ParseError(self.cur.pos, "expected '=>' or '?' after "
                                           "rule pattern")
        self.expect(";")
        # the names that every match of the pattern and conditions binds
        bound = {*pattern_vars(pattern), *POSITION_VARS}
        for cond in conditions:
            if isinstance(cond, Contains):
                if cond.var not in bound:
                    raise ParseError(pos, f"contains variable ${cond.var} "
                                          f"is not bound by the rule pattern")
                bound |= set(pattern_vars(cond.pattern))
            else:
                bound |= set(term_vars(cond.rhs))
        if actions is None:
            body = TestRule(polarity, goal, consequence, template, tuple(sorted(
                {*term_vars(goal), *template[0]} & bound - {*POSITION_VARS})))
            self.validate(pos, body, bound)
        else:
            # in the order written, so the first unbound variable is named
            for act in actions:
                self.check_bound(pos, term_vars(
                    act.value if isinstance(act, Assign) else act), bound)
            body = EnvRule(tuple(a for a in actions if isinstance(a, Assign)),
                           tuple(a for a in actions if isinstance(a, Functor)))
        rule = Rule(self.next_index, pattern, tuple(conditions), body,
                    skipped, pos)
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

    def parse_action(self) -> Assign | Functor:
        if self.cur.kind == "NAME" and self.peek_kind(1) == ":=":
            name = self.expect("NAME").lexeme
            self.expect(":=")
            return Assign(name, self.parse_term())
        pos = self.cur.pos
        term = self.parse_term()
        if not isinstance(term, Functor):
            raise ParseError(pos, "assertion must be a predicate term")
        return term

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

    def validate(self, pos: SourcePos, test: TestRule,
                 bound: set[str]) -> None:
        self.check_modes(pos, test.goal, bound)
        # an if-absent message is given when the goal has no solution,
        # which binds nothing
        if test.polarity is Polarity.IF_PRESENT:
            bound = bound | set(term_vars(test.goal))
        # <$_> and name=$_ bind nothing, even where a term binds a $_:
        # in a pattern's template, $_ is a slot that nothing fills
        names = test.template[0]
        anon = ANON in names and not isinstance(test.consequence,
                                                (Var, str, Functor))
        self.check_bound(pos, [n for n in names if not anon or n != ANON],
                         bound)
        if anon:
            self.check_bound(pos, [ANON], set())

    def check_modes(self, pos: SourcePos, goal: Functor,
                    bound: set[str]) -> None:
        modes = BUILTIN_MODES.get((goal.name, len(goal.args)), "")
        for arg, mode in zip(goal.args, modes):
            var = isinstance(arg, Var)
            ground = arg.name in bound if var else is_ground(arg)
            if not (ground if mode == "+" else var and not ground):
                raise ParseError(pos, f"{goal.name}: argument "
                                 f"{term_to_text(arg)} must be " + (
                                     "ground or a variable bound by the "
                                     "rule's pattern or conditions"
                                     if mode == "+" else
                                     "a variable that only the goal binds"))

    def check_bound(self, pos: SourcePos, names, bound: set[str]) -> None:
        for name in names:
            if name not in bound:
                raise ParseError(pos,
                                 f"variable ${name} is not bound by the "
                                 f"rule's pattern or conditions")


def parse_rule_texts(pairs: list[tuple[str, str]]) -> RuleSet:
    """Parse one ruleset from (text, file) pairs, a single namespace.

    Rule indices run densely across files in the order given.
    """
    rules: list[Rule] = []
    for text, file in pairs:
        parser = _Parser(tokenize(text, file), start_index=len(rules))
        rules.extend(parser.parse_rules())
    return RuleSet(tuple(rules))


def parse_rules(text: str, file: str) -> RuleSet:
    return parse_rule_texts([(text, file)])
