"""The one cache file of a cache dir: its layout, carry-over and failures.

A cache dir holds one zlib-compressed file, run.cache.  Its lines are the
key, the outcome (null after an online run), the index of [path, input
digest] rows, and one pass-1 entry per row (see cache_pack).  It is read
once at start-up and written at most once per run; entries of paths that a
run does not use are carried over while those paths exist.
"""

import compileall
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import pytest

from semlint import cli
from semlint.cli import PACK_NAME, RunConfig, execute, run
from semlint.dsl_parser import parse_rules
from semlint.xml_frontend import MalformedXml

import cache_pack
from stub_prober import StubProber
from test_cli import config, count_pass2, write_corpus


def outcome(o) -> tuple:
    return o.report, o.messages, o.diagnostics, o.exit_code


def cold(tmp_path: Path, rules: str, inputs: list[str], **kw) -> tuple:
    """The outcome of the same run in a new, empty cache dir."""
    return outcome(execute(RunConfig(
        rule_files=[rules], inputs=inputs, offline=True,
        cache_dir=tempfile.mkdtemp(dir=tmp_path), **kw)))


def test_every_run_leaves_one_file_and_no_temp_file(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=4)
    cache = tmp_path / "cache"
    bad = tmp_path / "bad.xml"
    bad.write_text("<a><b></a>", encoding="utf-8")
    runs = [config(tmp_path, rules, inputs),             # cold
            config(tmp_path, rules, inputs),             # warm: a replay
            config(tmp_path, rules, inputs, format="html"),
            config(tmp_path, rules, inputs[:2]),
            config(tmp_path, rules, inputs, offline=False),
            config(tmp_path, rules, [str(bad)] + inputs)]
    for n, cfg in enumerate(runs):
        if n == 3:
            Path(inputs[0]).write_text("<team/>\n", encoding="utf-8")
        run(cfg, prober=StubProber(), stdout=io.StringIO(),
            stderr=io.StringIO())
        assert os.listdir(cache) == [PACK_NAME], n


def test_a_failed_rename_removes_the_temp_file(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path)

    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(cli.os, "replace", refuse)
    err = io.StringIO()
    assert run(config(tmp_path, rules, inputs), stdout=io.StringIO(),
               stderr=err) == 2
    assert err.getvalue() == "semlint: error: rename refused\n"
    assert os.listdir(tmp_path / "cache") == []


def test_alternating_input_sets_share_one_file(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path, n_files=4, unknown_in=(0, 3))
    a, b = inputs[:2], inputs[2:]
    assert execute(config(tmp_path, rules, a)).evaluated == a
    assert execute(config(tmp_path, rules, b)).evaluated == b
    assert cache_pack.entry_paths(tmp_path / "cache") == a + b
    # the memo holds set B; the entries of set A were carried over
    solved = count_pass2(monkeypatch)
    third = execute(config(tmp_path, rules, a))
    assert third.evaluated == [] and third.cached == a and len(solved) == 1
    assert outcome(third) == cold(tmp_path, rules, a)


def test_concurrent_runs_in_one_cache_dir(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=6, unknown_in=(1, 4))
    sets = [inputs[:3], inputs[3:]]
    want = [cold(tmp_path, rules, s) for s in sets]
    for _ in range(5):
        start = threading.Barrier(2, timeout=10)
        got = [None, None]

        def check(i):
            start.wait()
            got[i] = outcome(execute(config(tmp_path, rules, sets[i])))
        threads = [threading.Thread(target=check, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # the last writer wins: a lost entry is a later miss, never a wrong
        # report
        assert got == want
        for s, w in zip(sets, want):
            assert outcome(execute(config(tmp_path, rules, s))) == w
        assert os.listdir(tmp_path / "cache") == [PACK_NAME]


def test_a_run_stopped_by_a_bad_input_keeps_its_entries(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=4)
    bad = Path(inputs[2])
    good = bad.read_text(encoding="utf-8")
    bad.write_text("<team><pers></team>", encoding="utf-8")
    cfg = config(tmp_path, rules, inputs)
    with pytest.raises(MalformedXml):
        execute(cfg)
    cache = tmp_path / "cache"
    assert cache_pack.entry_paths(cache) == inputs[:2]
    assert cache_pack.read_lines(cache)[cache_pack.OUTCOME] == "null"
    bad.write_text(good, encoding="utf-8")
    fixed = execute(cfg)
    assert fixed.evaluated == inputs[2:] and fixed.cached == inputs[:2]
    assert outcome(fixed) == cold(tmp_path, rules, inputs)


def test_a_memo_miss_never_decodes_the_outcome(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path, n_files=3)
    cfg = config(tmp_path, rules, inputs)
    execute(cfg)
    cache = tmp_path / "cache"
    cache_pack.set_line(cache, cache_pack.OUTCOME, '["not json')
    victim = Path(inputs[1])
    victim.write_text(victim.read_text() + "\n", encoding="utf-8")
    decoded = []
    read_outcome = cli._read_outcome
    monkeypatch.setattr(cli, "_read_outcome",
                        lambda text: decoded.append(text)
                        or read_outcome(text))
    edited = execute(cfg)
    assert decoded == []
    assert edited.evaluated == [inputs[1]]
    assert outcome(edited) == cold(tmp_path, rules, inputs)
    # the miss wrote a valid outcome, which the next run replays
    solved = count_pass2(monkeypatch)
    again = execute(cfg)
    assert again.cached == inputs and len(decoded) == 1 and solved == []
    assert outcome(again) == outcome(edited)


def test_an_outcome_that_does_not_decode_is_a_miss(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path, n_files=2)
    cfg = config(tmp_path, rules, inputs)
    first = execute(cfg)
    cache_pack.set_line(tmp_path / "cache", cache_pack.OUTCOME, '["x"]')
    solved = count_pass2(monkeypatch)
    again = execute(cfg)
    assert again.evaluated == [] and again.cached == inputs
    assert len(solved) == 1 and outcome(again) == outcome(first)


def damaged_outcome(doc, how: str) -> None:
    """Damage a decoded outcome in place; its one template is rule 1's,
    whose names are N, SourceLine and SourceFile."""
    templates, messages, _ = doc
    (rule, names, html, text), message = templates[0], messages[0]
    slot = next(i for i, s in enumerate(html) if type(s) is list)
    if how == "templates-not-a-list":
        doc[cache_pack.TEMPLATES] = {str(rule): [names, html, text]}
    elif how == "form-not-a-list":
        templates[0][cache_pack.HTML] = "".join(s for s in html
                                                if type(s) is str)
    elif how == "segment-not-a-slot":
        html[slot] = [html[slot][0]]
    elif how == "slot-index-a-bool":
        html[slot][0] = bool(html[slot][0])
    elif how == "slot-index-out-of-range":
        html[slot][0] = len(names)
    elif how == "slot-of-no-kind":
        html[slot][1] = "x"
    elif how == "name-not-a-string":
        names[0] = 1
    elif how == "template-twice":
        templates.append(templates[0])
    elif how == "template-rule-a-bool":
        templates[0][0] = True
    elif how == "message-of-a-rule-with-no-template":
        message[cache_pack.RULE] = 0
    elif how == "message-rule-a-bool":
        message[cache_pack.RULE] = True
    elif how == "line-a-bool":
        message[cache_pack.LINE] = True
    elif how == "values-too-short":
        message[cache_pack.VALUES] = []
    elif how == "values-too-long":
        message[cache_pack.VALUES].append("x")
    elif how == "value-not-a-string":
        message[cache_pack.VALUES] = [7]
    else:
        raise AssertionError(how)


# a damaged memo is a miss as a whole: the outcome is computed again, as a
# cold run computes it
@pytest.mark.parametrize("how", [
    "templates-not-a-list", "form-not-a-list", "segment-not-a-slot",
    "slot-index-a-bool", "slot-index-out-of-range", "slot-of-no-kind",
    "name-not-a-string", "template-twice", "template-rule-a-bool",
    "message-of-a-rule-with-no-template", "message-rule-a-bool",
    "line-a-bool", "values-too-short", "values-too-long",
    "value-not-a-string"])
def test_a_damaged_memo_is_a_miss(tmp_path, monkeypatch, how):
    rules, inputs = write_corpus(tmp_path, n_files=3, unknown_in=(0, 2))
    cfg = config(tmp_path, rules, inputs, format="machine")
    first = execute(cfg)
    cache = tmp_path / "cache"
    doc = json.loads(cache_pack.read_lines(cache)[cache_pack.OUTCOME])
    assert [row[0] for row in doc[cache_pack.TEMPLATES]] == [1]
    damaged_outcome(doc, how)
    cache_pack.set_line(cache, cache_pack.OUTCOME, json.dumps(doc))
    decoded = []
    read_outcome = cli._read_outcome
    monkeypatch.setattr(cli, "_read_outcome",
                        lambda text: decoded.append(read_outcome(text))
                        or decoded[-1])
    solved = count_pass2(monkeypatch)
    again = execute(cfg)
    assert decoded == [None] and len(solved) == 1
    assert again.evaluated == [] and again.cached == inputs
    assert outcome(again) == outcome(first) == cold(tmp_path, rules, inputs,
                                                   format="machine")


def test_files_of_the_earlier_layout_are_ignored_and_kept(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=2)
    cache = tmp_path / "cache"
    cache.mkdir()
    old = {"run.memo": b"x\x9c\x03\x00", "0" * 64 + ".pass1": b"{}"}
    for name, data in old.items():
        (cache / name).write_bytes(data)
    first = execute(config(tmp_path, rules, inputs))
    assert first.evaluated == inputs
    assert sorted(os.listdir(cache)) == sorted([PACK_NAME, *old])
    for name, data in old.items():
        assert (cache / name).read_bytes() == data


def test_a_non_utf8_input_name(tmp_path, monkeypatch):
    # the name is one the file system gives back as a lone surrogate
    monkeypatch.chdir(tmp_path)
    name = os.fsdecode(b"t\xff.xml")
    rules, (doc,) = write_corpus(tmp_path, n_files=1, unknown_in=(0,))
    try:
        Path(name).write_bytes(Path(doc).read_bytes())
    except (OSError, UnicodeError):
        pytest.skip("the file system rejects a name that is not UTF-8")
    cfg = config(tmp_path, rules, [name])
    first = execute(cfg)
    assert first.evaluated == [name] and name in first.report
    warm = execute(cfg)
    assert warm.cached == [name] and outcome(warm) == outcome(first)
    Path(name).write_text(Path(name).read_text() + "\n", encoding="utf-8")
    edited = execute(cfg)
    assert edited.evaluated == [name] and outcome(edited) == outcome(first)


def test_each_input_digest_is_stored_once(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=4, unknown_in=(0, 3))
    for i, path in enumerate(inputs):  # four contents
        with open(path, "a", encoding="utf-8") as f:
            f.write(f"<!-- {i} -->\n")
    # a repeated input is one row of the index
    first = execute(config(tmp_path, rules, inputs + inputs[:1]))
    data = zlib.decompress(cache_pack.pack_file(tmp_path / "cache")
                           .read_bytes()).decode("utf-8")
    digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in inputs]
    assert cache_pack.index(tmp_path / "cache") == [
        [p, d] for p, d in zip(inputs, digests)]
    for digest in digests:
        assert data.count(digest) == 1
    # the outcome is [templates, messages, diagnostics] and holds no report:
    # the template of each rule that a message uses, once, and each message
    # as the values of its rule's slots but $SourceFile and $SourceLine,
    # which are its position
    lines = data.split("\n")
    templates, messages, diagnostics = json.loads(lines[cache_pack.OUTCOME])
    template = parse_rules(Path(rules).read_text(encoding="utf-8"),
                           rules).rules[1].body.template
    assert template[0] == ("N", "SourceLine", "SourceFile")
    assert templates == json.loads(json.dumps([[1, *template]]))
    assert len(first.messages) == 3  # team0.xml is checked twice
    assert messages == [[m.pos.file, m.pos.line, 1, ["ghost"],
                         m.solution_key] for m in first.messages]
    assert not any(m.text in data or m.html in data for m in first.messages)
    assert diagnostics == first.diagnostics
    assert len(lines) == cache_pack.INDEX + 1 + len(inputs)


@pytest.mark.parametrize("format", ["text", "html", "machine"])
def test_a_replay_renders_the_cold_report(tmp_path, monkeypatch, format):
    rules, inputs = write_corpus(tmp_path, n_files=3, unknown_in=(0, 2))
    Path(rules).write_text(Path(rules).read_text(encoding="utf-8")
                           + '<check nom=$N/> ? nobody($N) / <li> & </li>;\n',
                           encoding="utf-8")
    cfg = config(tmp_path, rules, inputs, format=format)
    first = execute(cfg)
    assert first.messages and first.diagnostics
    solved = count_pass2(monkeypatch)
    warm = execute(cfg)
    assert warm.cached == inputs and solved == []
    assert outcome(warm) == outcome(first) == cold(tmp_path, rules, inputs,
                                                   format=format)


def rewrite_key(cache, field: int, value) -> None:
    key = json.loads(cache_pack.read_lines(cache)[cache_pack.KEY])
    key[field] = value
    cache_pack.set_line(cache, cache_pack.KEY, json.dumps(key))


# a pack of other code, another interpreter or another ruleset is a miss as
# a whole: str methods follow the interpreter's Unicode version, so an entry
# computed under one Python may not hold under another
@pytest.mark.parametrize("field, value", [
    (0, "0" * 64),
    (1, [sys.version_info[0], sys.version_info[1] - 1]),
    (1, [sys.version_info[0] + 1, sys.version_info[1]]),
    (2, None),
], ids=["code", "older-python", "newer-python", "rules"])
def test_a_key_of_another_pack_makes_every_entry_a_miss(tmp_path, monkeypatch,
                                                        field, value):
    rules, inputs = write_corpus(tmp_path, n_files=3)
    cfg = config(tmp_path, rules, inputs)
    first = execute(cfg)
    cache = tmp_path / "cache"
    if value is None:  # the same rule file with another digest
        value = [[rules, "0" * 64]]
    rewrite_key(cache, field, value)
    solved = count_pass2(monkeypatch)
    again = execute(cfg)
    assert again.evaluated == inputs and again.cached == [] and solved
    assert outcome(again) == outcome(first) == cold(tmp_path, rules, inputs)
    assert json.loads(cache_pack.read_lines(cache)[cache_pack.KEY])[:2] == [
        cli._code_digest(), list(sys.version_info[:2])]


def test_an_entry_of_other_input_content_is_a_miss(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path, n_files=3, unknown_in=(0,))
    cfg = config(tmp_path, rules, inputs)
    first = execute(cfg)
    cache = tmp_path / "cache"
    # the entry of inputs[1] says it was computed from the content of
    # inputs[0]; the outcome still matches
    digest = dict(cache_pack.index(cache))[inputs[0]]
    cache_pack.set_digest(cache, inputs[1], digest)
    solved = count_pass2(monkeypatch)
    again = execute(cfg)
    assert again.evaluated == [inputs[1]] and len(solved) == 1
    assert again.cached == [inputs[0], inputs[2]]
    assert outcome(again) == outcome(first)
    assert dict(cache_pack.index(cache))[inputs[1]] != digest


def test_an_index_row_that_is_not_a_path_and_digest_is_a_miss(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=2)
    cfg = config(tmp_path, rules, inputs)
    first = execute(cfg)
    cache = tmp_path / "cache"
    rows = cache_pack.index(cache)
    for damaged in ([rows[0], [inputs[1]]], [rows[0], [inputs[1], 7]],
                    {inputs[0]: rows[0][1]}, "x"):
        cache_pack.set_line(cache, cache_pack.INDEX, json.dumps(damaged))
        again = execute(cfg)
        assert again.evaluated == inputs and outcome(again) == outcome(first)


def test_the_entry_of_a_deleted_input_is_dropped(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=3, unknown_in=(0, 2))
    a, b = inputs[:2], inputs[2]
    execute(config(tmp_path, rules, [*a, b]))
    os.unlink(b)
    assert execute(config(tmp_path, rules, a)).cached == a
    # the run replayed nothing for the new input set, so it wrote the pack
    assert cache_pack.entry_paths(tmp_path / "cache") == a
    # a path that comes back is an ordinary miss
    Path(b).write_text(Path(a[0]).read_text(encoding="utf-8"),
                       encoding="utf-8")
    back = execute(config(tmp_path, rules, [*a, b]))
    assert back.evaluated == [b]
    assert outcome(back) == cold(tmp_path, rules, [*a, b])


def test_a_pack_is_written_at_the_default_level(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=3)
    execute(config(tmp_path, rules, inputs))
    raw = cache_pack.pack_file(tmp_path / "cache").read_bytes()
    assert raw == zlib.compress(zlib.decompress(raw))


# zlib reads every level; a pack written at level 1 by earlier code replays
@pytest.mark.parametrize("level", [1, 9])
def test_a_pack_of_any_level_is_read(tmp_path, monkeypatch, level):
    rules, inputs = write_corpus(tmp_path, n_files=3, unknown_in=(0, 2))
    cfg = config(tmp_path, rules, inputs)
    first = execute(cfg)
    pack = cache_pack.pack_file(tmp_path / "cache")

    def recompress():
        pack.write_bytes(zlib.compress(zlib.decompress(pack.read_bytes()),
                                       level))
    recompress()
    solved = count_pass2(monkeypatch)
    warm = execute(cfg)
    assert warm.cached == inputs and solved == []
    assert outcome(warm) == outcome(first)
    recompress()
    Path(inputs[1]).write_text(Path(inputs[0]).read_text(encoding="utf-8"),
                               encoding="utf-8")
    edited = execute(cfg)
    assert edited.evaluated == [inputs[1]]
    assert edited.cached == [inputs[0], inputs[2]]
    assert outcome(edited) == cold(tmp_path, rules, inputs)


# -- the key holds a digest of semlint's own modules -------------------------

PACKAGE = Path(cli.__file__).resolve().parent

# one offline run of the copy on PYTHONPATH: the cli module it loaded, its
# report, and the inputs it evaluated and took from the cache
RUN = """import json, sys
import semlint.cli as cli
o = cli.execute(cli.RunConfig(rule_files=[sys.argv[1]], cache_dir=sys.argv[2],
                              inputs=sys.argv[3:], offline=True))
print(json.dumps([cli.__file__, o.report, o.evaluated, o.cached]))"""


def copy_package(root: Path) -> Path:
    """A copy of the package, without bytecode; returns its directory."""
    dest = root / "semlint"
    shutil.copytree(PACKAGE, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_copy(package: Path, rules: str, cache: Path, inputs) -> list:
    """[report, evaluated, cached] of a run of the package in a new
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN, rules, str(cache), *inputs],
        capture_output=True, text=True, cwd=package.parent, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package.parent)})
    assert proc.returncode == 0, proc.stderr
    module, *rest = json.loads(proc.stdout)
    assert Path(module).parent == package
    return rest


def test_an_edited_module_makes_every_entry_a_miss(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=3)
    package = copy_package(tmp_path / "copy")
    cache = tmp_path / "cache"
    report, evaluated, _ = run_copy(package, rules, cache, inputs)
    assert evaluated == inputs
    assert run_copy(package, rules, cache, inputs) == [report, [], inputs]
    edit(package / "engine.py", "# -- pass 2 ", "# -- pass two ")
    assert run_copy(package, rules, cache, inputs) == [report, inputs, []]


def test_bytecode_leaves_the_key_unchanged(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=2)
    package = copy_package(tmp_path / "copy")
    cache = tmp_path / "cache"
    report, _, _ = run_copy(package, rules, cache, inputs)
    assert compileall.compile_dir(package, quiet=1)
    assert list((package / "__pycache__").glob("engine.*.pyc"))
    assert run_copy(package, rules, cache, inputs) == [report, [], inputs]


def test_two_versions_of_semlint_share_a_cache_dir(tmp_path):
    # version b finds the opposite of sameyear: its outcome differs
    (tmp_path / "check.rules").write_text(
        '<a y=$Y z=$Z/> ? sameyear($Y,$Z) / <li> <$Y> differs </li>;\n',
        encoding="utf-8")
    doc = tmp_path / "years.xml"
    doc.write_text('<r><a y="1" z="2"/><a y="3" z="3"/></r>\n',
                   encoding="utf-8")
    rules, inputs = str(tmp_path / "check.rules"), [str(doc)]
    a = copy_package(tmp_path / "a")
    b = copy_package(tmp_path / "b")
    edit(b / "builtins.py", "return [b] if equal else []",
         "return [] if equal else [b]")
    # each one's cold report, in a cache dir of its own
    want = {package: run_copy(package, rules, tempfile.mkdtemp(dir=tmp_path),
                              inputs)[0] for package in (a, b)}
    assert want[a] != want[b]
    for package in (a, b, a, b):
        assert run_copy(package, rules, tmp_path / "shared", inputs) == [
            want[package], inputs, []]
