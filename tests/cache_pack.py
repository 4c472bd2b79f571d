"""Read and edit the one cache file of a cache dir, line by line.

The file is zlib-compressed, at the default level when semlint writes it;
any level reads.  Its lines are:
- KEY: [digest of semlint's code (cli._code_digest: its *.py files by name
  and bytes), [major, minor] of the interpreter, [[rule file, digest of its
  text], ...], --format, --normalize-names, inputs]; a pack whose first
  three fields differ is a miss as a whole, entries included;
- OUTCOME: [templates, messages, diagnostics], or null after an online
  run.  templates holds, once each, [rule index, names, html, text] for
  each rule that a message uses: its consequence compiled when the rule
  was loaded (rule_ast.compile_consequence).  A form, html or text, is a
  list of literals and [index into names, kind] slots; a kind is "c"
  (element content), "a" (attribute value) or "t" (term argument).  A
  message is [file, line, rule index, values, solution key]: values holds
  the value of each name of its template in order, but $SourceFile and
  $SourceLine, which are its file and line.  No message is stored as
  html or text;
- INDEX: [[path, digest of the input its entry was computed from], ...],
  the only copy of each input digest;
- one pass-1 entry, [strings, facts, tests, diagnostics], per index row in
  that order.  strings lists each distinct string of the entry once, in
  order of first use; a term is an index into it, or [name index, *args]
  for a compound; a test is [rule index, step, row], its step its line
  minus the line of the test before it (the first test's is its line), its
  row a term, never null, per name of its rule's TestRule.captured;
  diagnostics are plain strings.
"""

import json
import zlib
from pathlib import Path

from semlint.cli import PACK_NAME

KEY, OUTCOME, INDEX = 0, 1, 2
# the fields of an outcome, of one of its templates and of one of its
# messages
TEMPLATES, MESSAGES, DIAGNOSTICS = 0, 1, 2
NAMES, HTML, TEXT = 1, 2, 3
FILE, LINE, RULE, VALUES, SOLUTION_KEY = 0, 1, 2, 3, 4
# the fields of an entry
STRINGS, FACTS, TESTS, DIAGS = 0, 1, 2, 3


def pack_file(cache_dir) -> Path:
    return Path(cache_dir) / PACK_NAME


def read_lines(cache_dir) -> list[str]:
    data = zlib.decompress(pack_file(cache_dir).read_bytes())
    return data.decode("utf-8").split("\n")


def write_lines(cache_dir, lines: list[str]) -> None:
    pack_file(cache_dir).write_bytes(
        zlib.compress("\n".join(lines).encode("utf-8")))


def index(cache_dir) -> list[list[str]]:
    return json.loads(read_lines(cache_dir)[INDEX])


def entry_paths(cache_dir) -> list[str]:
    return [path for path, _ in index(cache_dir)]


def entry(cache_dir, path: str) -> str:
    return read_lines(cache_dir)[INDEX + 1 + entry_paths(cache_dir).index(path)]


def set_line(cache_dir, index: int, text: str) -> None:
    assert "\n" not in text
    lines = read_lines(cache_dir)
    lines[index] = text
    write_lines(cache_dir, lines)


def set_entry(cache_dir, path: str, text: str) -> None:
    set_line(cache_dir, INDEX + 1 + entry_paths(cache_dir).index(path), text)


def set_digest(cache_dir, path: str, digest: str) -> None:
    """Make the index say that the entry of `path` was computed from the
    input whose digest is `digest`."""
    rows = index(cache_dir)
    rows[entry_paths(cache_dir).index(path)][1] = digest
    set_line(cache_dir, INDEX, json.dumps(rows))


def drop_entry(cache_dir, path: str) -> None:
    """Remove the entry of `path` and its row of the index."""
    lines = read_lines(cache_dir)
    paths = entry_paths(cache_dir)
    rows = json.loads(lines[INDEX])
    del lines[INDEX + 1 + paths.index(path)]
    del rows[paths.index(path)]
    lines[INDEX] = json.dumps(rows)
    write_lines(cache_dir, lines)
