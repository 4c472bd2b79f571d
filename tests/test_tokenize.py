"""The `re` scanner of rule files against the char-at-a-time lexer it replaced.

On every input both must give equal token lists, kinds, lexemes and lines
included, or both must raise a LexError with the same text.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_lexer
from semlint.dsl_parser import LexError, tokenize
from test_cli_fuzz import rule

RAWEB = Path(__file__).resolve().parent.parent / "perfbench" / "raweb.rules"

# every punctuation character, both escapes, line ends, Unicode name
# characters that \w gets wrong (U+0301, U+00B7, U+00B2), Unicode whitespace,
# plus a few whole tags so that element content is reached often
PIECES = [*"<>/$*=:-?&;(),\"\\", " ", "\t", "\n", "\r", "\r\n", "a", "b",
          "_", "1", ".", "\u00e9", "\u0301", "\u00b2", "\u00b7", "\u00a0",
          "\u2028", '\\"', "\\\\", "<a>", "</a>", "<$X>", "->", "=>", ":="]


def outcome(lex, text):
    try:
        return lex(text, "r.rules")
    except LexError as exc:
        return f"LexError: {exc}"


def assert_same(text):
    assert outcome(tokenize, text) == outcome(legacy_lexer.tokenize, text)


@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
@settings(max_examples=2000, deadline=None)
def test_same_tokens_on_dsl_alphabet_text(text):
    assert_same(text)


@given(rule())
@settings(max_examples=2000, deadline=None)
def test_same_tokens_on_fuzzer_rule_files(drawn):
    assert_same(drawn[0])


@pytest.mark.parametrize("text", [
    'x := "oops',                       # unterminated string
    'x := "a\\"',                       # an escaped quote at EOF
    'x := "a\\',                        # a backslash at EOF
    'x := "a\\\\" ;',                   # an escaped backslash ends it
    'x := "a\\b\\"c";',                 # a backslash that escapes nothing
    "<a x=$X",                          # unterminated tag
    "<a> text <b/>\n more",             # unterminated content
    "<a> <*b> </a>",                    # '<*' inside content
    "<* <a/> => p();",                  # '<*' at top level
    "? \u00e9t\u00e9->x",               # '->' after a non-ASCII name
    "? e\u0301\u00b7\u203f\u2118->x",   # name characters that \w rejects
    "? x\u00b2",                        # a \w character that is no name's
    "x : y",                            # a stray ':'
    "x - y",                            # a stray '-'
    "<a/ >",                            # a '/' in a tag not before '>'
    "<a>\n\u00a0 k \u2028\n</a>",       # TEXT is stripped of all whitespace
    "<a>\r\n\r\n k\r\n</a>\r\n>",       # only '\n' counts a line
])
def test_same_tokens_on_malformed_input(text):
    assert_same(text)


def test_same_tokens_on_raweb_rules():
    assert_same(RAWEB.read_text("utf-8"))


def test_tokens_of_one_line_share_one_position():
    tokens = tokenize(RAWEB.read_text("utf-8"), "raweb.rules")
    assert (len({id(t.pos) for t in tokens})
            == len({t.pos.line for t in tokens}))
