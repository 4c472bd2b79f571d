import io
import json
import hashlib
import os
import socket
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from semlint import MAX_URL_TIMEOUT, cli
from semlint.builtins import (DEFAULT_MAX_PROBES, DEFAULT_URL_TIMEOUT,
                              HttpProber)
from semlint.cli import (CliError, RunConfig, RunOutcome, build_arg_parser,
                         execute, expand_inputs, main, run)
from semlint.reporting import FORMATS, emit_report
import cache_pack
from stub_prober import StubProber

RULES = '<pers nom=$N> <$_> </pers> => personne($N);\n' \
        '<check nom=$N/> ? personne($N) / <li> <$N> is unknown, ' \
        'line <$SourceLine> of <$SourceFile>. </li> ;\n'


def write_corpus(root: Path, n_files=3, unknown_in=(1,), rules_text=RULES):
    rules = root / "check.rules"
    rules.write_text(rules_text, encoding="utf-8")
    inputs = []
    for i in range(n_files):
        check = "ghost" if i in unknown_in else "known"
        doc = (f'<team>\n<pers nom="known"><r/></pers>\n'
               f'<check nom="{check}"/>\n</team>\n')
        path = root / f"team{i}.xml"
        path.write_text(doc, encoding="utf-8")
        inputs.append(str(path))
    return str(rules), inputs


def config(root: Path, rules, inputs, **kw):
    kw.setdefault("offline", True)
    return RunConfig(rule_files=[rules], inputs=inputs,
                     cache_dir=str(root / "cache"), **kw)


def test_config_validation():
    with pytest.raises(CliError):
        RunConfig(rule_files=[], inputs=["x"], cache_dir="c")
    with pytest.raises(CliError):
        RunConfig(rule_files=["r"], inputs=[], cache_dir="c")
    with pytest.raises(CliError):
        RunConfig(rule_files=["r"], inputs=["x"], cache_dir="c",
                  url_timeout=0)


def test_max_probes_below_one_is_rejected_before_the_run(tmp_path, capsys):
    rules, inputs = write_corpus(tmp_path)
    with pytest.raises(CliError, match="max probes must be >= 1"):
        config(tmp_path, rules, inputs, max_probes=0)
    assert main(["--rules", rules, "--cache-dir", str(tmp_path / "cache"),
                 "--max-probes", "0", *inputs]) == 2
    assert capsys.readouterr().err == (
        "semlint: error: max probes must be >= 1\n")
    assert not (tmp_path / "cache").exists()


def test_unknown_format_is_rejected_before_the_run(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    with pytest.raises(CliError, match="unknown report format 'xml'"):
        config(tmp_path, rules, inputs, format="xml")
    # the CLI offers exactly the formats the report writer knows
    format_action = next(a for a in build_arg_parser()._actions
                         if a.dest == "format")
    assert tuple(format_action.choices) == FORMATS
    for name in FORMATS:
        assert emit_report([], [], name)
    with pytest.raises(SystemExit) as exc:
        main(["--rules", rules, "--cache-dir", str(tmp_path / "cache"),
              "--format", "xml", *inputs])
    assert exc.value.code == 2
    assert not (tmp_path / "cache").exists()


def test_expand_inputs_globs_sorted(tmp_path):
    for name in ["b.xml", "a.xml", "c.txt"]:
        (tmp_path / name).touch()
    got = expand_inputs([str(tmp_path / "*.xml")])
    assert [Path(p).name for p in got] == ["a.xml", "b.xml"]
    with pytest.raises(CliError):
        expand_inputs([str(tmp_path / "*.nope")])


def test_existing_input_names_are_not_globbed(tmp_path):
    # a shell has already expanded its globs: rep[1].xml names itself,
    # whether or not rep1.xml (what it matches as a glob) exists
    literal = tmp_path / "rep[1].xml"
    literal.touch()
    assert expand_inputs([str(literal)]) == [str(literal)]
    (tmp_path / "rep1.xml").touch()
    assert expand_inputs([str(literal)]) == [str(literal)]
    assert expand_inputs([str(tmp_path / "rep[0-9].xml")]) == [
        str(tmp_path / "rep1.xml")]


def test_execute_reports_unknown_member(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    outcome = execute(config(tmp_path, rules, inputs))
    assert outcome.exit_code == 0
    assert len(outcome.messages) == 1
    assert "ghost is unknown, line 3" in outcome.messages[0].text
    assert "team1.xml" in outcome.report


def test_cold_run_evaluates_all_warm_run_none(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    cfg = config(tmp_path, rules, inputs)
    cold = execute(cfg)
    assert sorted(cold.evaluated) == sorted(inputs) and cold.cached == []
    warm = execute(cfg)
    assert warm.evaluated == [] and sorted(warm.cached) == sorted(inputs)
    assert warm.report == cold.report


def test_touching_one_file_reevaluates_only_it(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=10)
    cfg = config(tmp_path, rules, inputs)
    execute(cfg)
    victim = Path(inputs[4])
    victim.write_text(victim.read_text() + "\n", encoding="utf-8")
    second = execute(cfg)
    assert second.evaluated == [inputs[4]]
    assert len(second.cached) == 9


def test_rule_change_invalidates_everything(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    cfg = config(tmp_path, rules, inputs)
    execute(cfg)
    Path(rules).write_text(RULES + "\n<zz/> => zz();\n", encoding="utf-8")
    second = execute(cfg)
    assert sorted(second.evaluated) == sorted(inputs)


def test_unchanged_content_same_report_after_edit_revert(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    cfg = config(tmp_path, rules, inputs)
    first = execute(cfg)
    original = Path(inputs[0]).read_text()
    Path(inputs[0]).write_text(original.replace("known", "other"),
                               encoding="utf-8")
    execute(cfg)
    Path(inputs[0]).write_text(original, encoding="utf-8")
    third = execute(cfg)
    assert third.report == first.report


def test_duplicate_input_cold_and_warm_match(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=3, unknown_in=(0,))
    cfg = config(tmp_path, rules, [inputs[0]] * 6 + inputs)
    cold = execute(cfg)
    warm = execute(cfg)
    assert warm.evaluated == [] and warm.report == cold.report
    assert not list((tmp_path / "cache").glob("*.tmp"))


def test_duplicate_input_is_evaluated_once(tmp_path):
    rules, inputs = write_corpus(tmp_path, n_files=2, unknown_in=(0, 1))
    a, b = inputs
    repeated = execute(config(tmp_path / "rep", rules, [a, a, a, b]))
    distinct = execute(config(tmp_path / "dist", rules, [a, b]))
    assert repeated.evaluated == [a, b]
    assert repeated.report == distinct.report
    warm = execute(config(tmp_path / "rep", rules, [a, a, a, b]))
    assert warm.cached == [a, b] and warm.report == distinct.report


def test_each_input_is_read_once(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path, n_files=4)
    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads.append(str(path))
        return read_bytes(path)
    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    cfg = config(tmp_path, rules, inputs + inputs[:1])
    cold = execute(cfg)
    assert sorted(reads) == sorted(inputs)
    reads.clear()
    warm = execute(cfg)
    assert sorted(reads) == sorted(inputs)
    assert warm.cached == inputs and warm.report == cold.report


def test_each_miss_is_parsed_before_the_next_read(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path)
    calls = []
    read_bytes, parse_xml = Path.read_bytes, cli.parse_xml

    def logged_read_bytes(path):
        calls.append(("read", str(path)))
        return read_bytes(path)

    def logged_parse_xml(data, path, projection):
        calls.append(("parse", path))
        return parse_xml(data, path, projection)
    monkeypatch.setattr(Path, "read_bytes", logged_read_bytes)
    monkeypatch.setattr(cli, "parse_xml", logged_parse_xml)
    execute(config(tmp_path, rules, inputs))
    assert calls == [(op, path) for path in inputs
                     for op in ("read", "parse")]


def test_cached_tests_do_not_depend_on_the_input_path(tmp_path):
    rules, (short,) = write_corpus(tmp_path, n_files=1, unknown_in=(0,))
    longer = tmp_path / "a" / "much" / "longer" / "directory" / "team.xml"
    longer.parent.mkdir(parents=True)
    longer.write_bytes(Path(short).read_bytes())
    cfg = config(tmp_path, rules, [short, str(longer)])
    cold = execute(cfg)
    entries = [json.loads(cache_pack.entry(cfg.cache_dir, path))
               for path in (short, str(longer))]
    # a row's values are indices into the entry's strings: compare both
    assert entries[0][cache_pack.TESTS] and entries[0] == entries[1]
    warm = execute(cfg)
    assert warm.cached == cfg.inputs and warm.report == cold.report
    assert str(longer) in warm.report


# the cache file is zlib-compressed: cache_pack writes damage compressed,
# so that it reaches the entry's decoder
def read_entry(cfg, path: str) -> str:
    return cache_pack.entry(cfg.cache_dir, path)


def write_entry(cfg, path: str, text: str) -> None:
    cache_pack.set_entry(cfg.cache_dir, path, text)
    # the memo's key holds no entry digests, so the memo would replay the
    # cold outcome without reading the entry: drop it
    cache_pack.set_line(cfg.cache_dir, cache_pack.OUTCOME, "null")


def test_truncated_cache_entry_is_reevaluated(tmp_path):
    rules = tmp_path / "check.rules"
    rules.write_text(RULES, encoding="utf-8")
    doc = tmp_path / "team.xml"
    doc.write_text('<team>\n<pers nom="known"><r/></pers>\n' + "".join(
        f'<check nom="ghost{i}"/>\n' for i in range(30)) + "</team>\n",
        encoding="utf-8")
    cfg = config(tmp_path, str(rules), [str(doc)])
    cold = execute(cfg)
    assert len(cold.messages) == 30
    text = read_entry(cfg, str(doc))
    # cut at half its length, or at the line start before it if any
    half = len(text) // 2
    write_entry(cfg, str(doc), text[:text.rfind("\n", 0, half) + 1 or half])
    again = execute(cfg)
    assert again.evaluated == [str(doc)]
    assert again.report == cold.report
    assert read_entry(cfg, str(doc)) == text


@pytest.mark.parametrize("damage", [
    lambda data: "[" * 200000,
    # a current entry whose one fact nests 5,000 deep
    lambda data: json.dumps([data[cache_pack.STRINGS], ["@"],
                             *data[cache_pack.FACTS + 1:]]).replace(
        '"@"', "[0," * 5000 + "0" + "]" * 5000),
], ids=["brackets", "deep-fact"])
def test_deeply_nested_cache_entry_is_a_miss(tmp_path, damage):
    rules, inputs = write_corpus(tmp_path, n_files=2, unknown_in=(0,))
    cfg = config(tmp_path, rules, inputs)
    cold = execute(cfg)
    text = read_entry(cfg, inputs[0])
    write_entry(cfg, inputs[0], damage(json.loads(text)))
    again = execute(cfg)
    assert again.evaluated == [inputs[0]]
    assert again.report == cold.report
    assert read_entry(cfg, inputs[0]) == text


def _retarget_test(data, rule_index):
    data[cache_pack.TESTS][0][0] = rule_index
    return json.dumps(data)


def _text_format(data, cfg, path: str) -> str:
    """The line-oriented text format of earlier versions, with the digests
    of this input and ruleset, its lines joined by spaces, since an entry is
    one line of the cache file."""
    (input_digest,) = [d for p, d in cache_pack.index(cfg.cache_dir)
                       if p == path]
    key = json.loads(cache_pack.read_lines(cfg.cache_dir)[cache_pack.KEY])
    ((_, rules_digest),) = key[2]
    return (f'#input {input_digest} #rules {rules_digest} '
            f'personne("known"). %tests dt("ifnot","1","{path}","3",'
            f'personne($N),bindings(),term("x")) %diags ')


def _restep_test(data, step):
    data[cache_pack.TESTS][0][1] = step
    return json.dumps(data)


def _set_test(data, make_test):
    tests = data[cache_pack.TESTS]
    tests[0] = make_test(tests[0])
    return json.dumps(data)


def _set_row(data, test, make_row):
    # the row becomes make_row(the value of its $N)
    tests = data[cache_pack.TESTS]
    tests[test][2] = make_row(tests[test][2][0])
    return json.dumps(data)


@pytest.mark.parametrize("make_entry", [
    lambda data, cfg, path: '{"format": 2}',
    lambda data, cfg, path: _retarget_test(data, 99),
    # rule 0 of RULES asserts personne/1; only rule 1 is a check
    lambda data, cfg, path: _retarget_test(data, 0),
    _text_format,
    # the check is on line 3, so each of these would sum to a line
    lambda data, cfg, path: _restep_test(data, True),
    lambda data, cfg, path: _restep_test(data, 3.0),
    lambda data, cfg, path: _restep_test(data, "3"),
    lambda data, cfg, path: _set_test(data, json.dumps),
    lambda data, cfg, path: _set_test(data, lambda test: test[:2]),
    # tests 0, 1 and 2 are of rules 1, 2 and 3, whose rows hold $N alone.
    # A cold run binds each name of a row, a builtin's input included, and
    # writes no cell for $Z, which only the goal binds: here one holds $N's
    lambda data, cfg, path: _set_row(data, 0, lambda n: [None]),
    lambda data, cfg, path: _set_row(data, 1, lambda n: [None]),
    lambda data, cfg, path: _set_row(data, 2, lambda n: [n, n]),
], ids=["format-only", "rule-99", "environment-rule", "text-format",
        "step-a-bool", "step-a-float", "step-a-string", "test-not-a-list",
        "test-two-items", "cell-null", "input-unset", "goal-only-cell"])
def test_inconsistent_cache_entry_is_a_miss(tmp_path, make_entry):
    rules, inputs = write_corpus(
        tmp_path, n_files=2, unknown_in=(0,), rules_text=RULES + (
            '<check nom=$N/> ? pubbyotherproject($N, "p", $O) -> '
            '<li> <$N> <$O> </li> ;\n'
            '<check nom=$N/> ? personne($Z) -> <li> <$N> sees <$Z> </li> ;\n'))
    cfg = config(tmp_path, rules, inputs)
    cold = execute(cfg)
    assert "ghost sees known" in cold.report
    data = json.loads(read_entry(cfg, inputs[0]))
    write_entry(cfg, inputs[0], make_entry(data, cfg, inputs[0]))
    again = execute(cfg)
    assert again.evaluated == [inputs[0]]
    assert again.report == cold.report


def count_pass2(monkeypatch) -> list:
    """The argument tuple of each resolve_tests call from here on."""
    calls, resolve_tests = [], cli.resolve_tests
    monkeypatch.setattr(cli, "resolve_tests",
                        lambda *a: calls.append(a) or resolve_tests(*a))
    return calls


# the entries and the memo share one zlib stream: an online run's file holds
# entries alone, an offline run's file the memo too; either is a full miss
@pytest.mark.parametrize("damaged", ["entry", "memo"])
def test_a_cache_file_that_is_not_zlib_is_a_miss(tmp_path, monkeypatch,
                                                  damaged):
    rules, inputs = write_corpus(tmp_path, n_files=2, unknown_in=(0,))
    cfg = config(tmp_path, rules, inputs, offline=damaged == "memo")
    cold = execute(cfg, prober=StubProber())
    target = cache_pack.pack_file(cfg.cache_dir)
    assert (cache_pack.read_lines(cfg.cache_dir)[cache_pack.OUTCOME]
            == "null") == (damaged == "entry")
    # the same content, left uncompressed
    plain = zlib.decompress(target.read_bytes())
    target.write_bytes(plain)
    solved = count_pass2(monkeypatch)
    again = execute(cfg, prober=StubProber())
    assert again.evaluated == inputs
    assert again.report == cold.report and len(solved) == 1
    assert zlib.decompress(target.read_bytes()) == plain


def test_an_unchanged_offline_run_replays_its_memo(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path)
    cfg = config(tmp_path, rules, inputs + inputs[:1], fail_on_warnings=True)
    cold = execute(cfg)
    monkeypatch.setattr(cli, "_load_ruleset", None)
    monkeypatch.setattr(cli, "resolve_tests", None)
    warm = execute(cfg)
    assert warm == RunOutcome(cold.report, cold.messages, cold.diagnostics,
                              1, evaluated=[], cached=inputs)
    # the exit code is not memoised
    assert execute(config(tmp_path, rules, inputs + inputs[:1])).exit_code == 0


def test_an_online_run_neither_reads_nor_writes_the_memo(tmp_path,
                                                         monkeypatch):
    rules, inputs = write_corpus(tmp_path)
    cache = tmp_path / "cache"
    online = config(tmp_path, rules, inputs, offline=False)
    execute(online, prober=StubProber())
    assert cache_pack.read_lines(cache)[cache_pack.OUTCOME] == "null"
    execute(config(tmp_path, rules, inputs))
    assert cache_pack.read_lines(cache)[cache_pack.OUTCOME] != "null"
    written = cache_pack.pack_file(cache).read_bytes()
    solved = count_pass2(monkeypatch)
    assert execute(online, prober=StubProber()).evaluated == []
    assert len(solved) == 1
    # nothing was evaluated, so nothing was written: the memo stands
    assert cache_pack.pack_file(cache).read_bytes() == written


def test_crlf_rules_keep_cache_hits(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    Path(rules).write_bytes(RULES.replace("\n", "\r\n").encode("utf-8"))
    cfg = config(tmp_path, rules, inputs)
    execute(cfg)
    victim = Path(inputs[1])
    victim.write_text(victim.read_text() + "\n", encoding="utf-8")
    outcome = execute(cfg)
    assert outcome.evaluated == [inputs[1]]
    assert outcome.cached == [inputs[0], inputs[2]]


def test_facts_merge_across_files(tmp_path):
    # the member is declared in one file and checked in another
    rules = tmp_path / "check.rules"
    rules.write_text(RULES, encoding="utf-8")
    a = tmp_path / "a.xml"
    a.write_text('<team><pers nom="shared"><r/></pers></team>',
                 encoding="utf-8")
    b = tmp_path / "b.xml"
    b.write_text('<team><check nom="shared"/></team>', encoding="utf-8")
    outcome = execute(config(tmp_path, str(rules), [str(a), str(b)]))
    assert outcome.messages == []


def test_multiple_rule_files_concatenate(tmp_path):
    r1 = tmp_path / "one.rules"
    r1.write_text('<pers nom=$N> <$_> </pers> => personne($N);\n',
                  encoding="utf-8")
    r2 = tmp_path / "two.rules"
    r2.write_text('<check nom=$N/> ? personne($N) / <li> missing <$N> '
                  '</li> ;\n', encoding="utf-8")
    doc = tmp_path / "d.xml"
    doc.write_text('<team><pers nom="y"><r/></pers><check nom="x"/></team>',
                   encoding="utf-8")
    cfg = RunConfig(rule_files=[str(r1), str(r2)], inputs=[str(doc)],
                    cache_dir=str(tmp_path / "cache"), offline=True)
    outcome = execute(cfg)
    assert [m.text for m in outcome.messages] == ["missing x"]


def test_run_exit_codes(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert run(config(tmp_path, rules, inputs), stdout=out, stderr=err) == 0
    assert "ghost is unknown" in out.getvalue()

    strict = config(tmp_path, rules, inputs, fail_on_warnings=True)
    assert run(strict, stdout=io.StringIO(), stderr=io.StringIO()) == 1

    clean = config(tmp_path, rules, [inputs[0]], fail_on_warnings=True)
    assert run(clean, stdout=io.StringIO(), stderr=io.StringIO()) == 0


def test_run_returns_2_on_bad_inputs(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    err = io.StringIO()
    missing = config(tmp_path, rules, [str(tmp_path / "nope.xml")])
    assert run(missing, stdout=io.StringIO(), stderr=err) == 2
    assert "error" in err.getvalue()

    bad_xml = tmp_path / "bad.xml"
    bad_xml.write_text("<a><b></a>", encoding="utf-8")
    assert run(config(tmp_path, rules, [str(bad_xml)]),
               stdout=io.StringIO(), stderr=io.StringIO()) == 2

    bad_rules = tmp_path / "bad.rules"
    bad_rules.write_text("<a> oops", encoding="utf-8")
    assert run(config(tmp_path, str(bad_rules), inputs),
               stdout=io.StringIO(), stderr=io.StringIO()) == 2

    err = io.StringIO()
    unwritable = config(tmp_path, rules, inputs,
                        output=str(tmp_path / "no-such-dir" / "report.txt"))
    assert run(unwritable, stdout=io.StringIO(), stderr=err) == 2
    assert err.getvalue().startswith("semlint: error: ")


def test_anon_in_a_message_template_fails_at_load(tmp_path):
    rules = tmp_path / "anon.rules"
    rules.write_text('<a x=$X/> => p($X);\n'
                     '<a x=$X/> ? p($X) -> <li> <$_> </li>;\n',
                     encoding="utf-8")
    doc = tmp_path / "in.xml"
    doc.write_text('<r><a x="1"/></r>', encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run(config(tmp_path, str(rules), [str(doc)]),
               stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == (f"semlint: error: {rules}:2: variable $_ is not "
                              f"bound by the rule's pattern or conditions\n")


def test_first_bad_input_in_order_is_reported(tmp_path):
    rules, _ = write_corpus(tmp_path)
    bad_xml = tmp_path / "bad.xml"
    bad_xml.write_text("<a><b></a>", encoding="utf-8")
    err = io.StringIO()
    cfg = config(tmp_path, rules, [str(bad_xml), str(tmp_path / "missing.xml")])
    assert run(cfg, stdout=io.StringIO(), stderr=err) == 2
    assert "bad.xml" in err.getvalue()


def test_main_entry_point(tmp_path, capsys):
    rules, inputs = write_corpus(tmp_path)
    code = main(["--rules", rules, "--cache-dir", str(tmp_path / "cache"),
                 "--offline", "--format", "machine", *inputs])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"messages": 1}


def test_repeated_rules_options_concatenate_in_order(tmp_path, capsys):
    _, inputs = write_corpus(tmp_path)
    facts, checks = RULES.splitlines(keepends=True)
    (tmp_path / "a.rules").write_text(facts, encoding="utf-8")
    (tmp_path / "b.rules").write_text(checks, encoding="utf-8")
    a, b = str(tmp_path / "a.rules"), str(tmp_path / "b.rules")
    reports = []
    for i, rule_args in enumerate([["--rules", a, b],
                                   ["--rules", a, "--rules", b]]):
        code = main([*rule_args, "--cache-dir", str(tmp_path / f"c{i}"),
                     "--offline", *inputs])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1]
    assert "ghost is unknown" in reports[1][1].out


def test_an_asserted_predicate_with_no_fact_has_no_solution(tmp_path,
                                                            capsys):
    # a predicate that a live rule asserts is known even when no fact comes,
    # so its if-absent test warns; it used to be reported as never asserted,
    # with 0 messages.  One that only a skipped rule asserts stays unknown
    rules = tmp_path / "check.rules"
    rules.write_text(
        '<pers nom=$N/> => personne($N);\n'
        '<* <pers nom=$N/> => member($N);\n'
        '<check nom=$N/> ? personne($N) / <li> <$N> is unknown. </li> ;\n'
        '<check nom=$N/> ? member($N) / <li> <$N> is no member. </li> ;\n',
        encoding="utf-8")
    doc = tmp_path / "team.xml"
    doc.write_text('<team>\n<check nom="ghost"/>\n</team>\n', encoding="utf-8")
    runs = [(main(["--rules", str(rules), "--cache-dir",
                   str(tmp_path / "cache"), "--offline", str(doc)]),
             capsys.readouterr()) for _ in range(2)]  # cold, then a replay
    assert runs[0] == runs[1]
    code, (out, err) = runs[0]
    assert code == 0
    assert "ghost is unknown" in out and "is no member" not in out
    assert "personne/1" not in err
    assert "unknown predicate member/1" in err


def test_main_requires_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SEMLINT_CACHE_DIR", raising=False)
    rules, inputs = write_corpus(tmp_path)
    assert main([*inputs, "--rules", rules]) == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEMLINT_CACHE_DIR", str(tmp_path / "envcache"))
    rules, inputs = write_corpus(tmp_path)
    assert main(["--rules", rules, "--offline", *inputs]) == 0
    assert (tmp_path / "envcache").is_dir()


def test_output_file_option(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    target = tmp_path / "report.txt"
    cfg = config(tmp_path, rules, inputs, output=str(target))
    assert run(cfg, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert "ghost is unknown" in target.read_text(encoding="utf-8")


URL_RULES = ('<xref url=$U><$_></xref>\n'
             '? testurl($U,$A,$B) -> <li> <$U> : <$A> <$B> </li> ;\n')


def test_url_prefetch_uses_injected_prober(tmp_path):
    rules = tmp_path / "url.rules"
    rules.write_text(URL_RULES, encoding="utf-8")
    doc = tmp_path / "d.xml"
    doc.write_text('<p><xref url="http://h/dead">x</xref></p>',
                   encoding="utf-8")
    prober = StubProber()
    cfg = RunConfig(rule_files=[str(rules)], inputs=[str(doc)],
                    cache_dir=str(tmp_path / "cache"))
    outcome = execute(cfg, prober=prober)
    assert len(outcome.messages) == 1
    assert "http://h/dead" in outcome.messages[0].text


def test_answers_bound_to_one_variable_twice_have_no_solution(tmp_path):
    # testurl($U, $A, $A) on a dead URL: the two answers differ, so, as in
    # Prolog, the goal has no solution; it used to end in a traceback
    rules = tmp_path / "url.rules"
    rules.write_text('<a href=$U/> ? testurl($U, $A, $A) -> <li> <$A> </li>;',
                     encoding="utf-8")
    doc = tmp_path / "d.xml"
    doc.write_text('<p><a href="http://h/dead"/></p>', encoding="utf-8")
    cfg = RunConfig(rule_files=[str(rules)], inputs=[str(doc)],
                    cache_dir=str(tmp_path / "cache"))
    out, err = io.StringIO(), io.StringIO()
    assert run(cfg, prober=StubProber(), stdout=out, stderr=err) == 0
    assert out.getvalue() == "0 messages\n"
    assert err.getvalue() == ""


def test_unprobeable_urls_are_reported_not_raised(tmp_path):
    rules = tmp_path / "url.rules"
    rules.write_text(URL_RULES, encoding="utf-8")
    urls = ["http://127.0.0.1:1/a b", "http://127.0.0.1:abc/",
            "http://[::1/x", "http://a..\u00e9/"]
    doc = tmp_path / "d.xml"
    doc.write_text("<p>" + "".join(f'<xref url="{u}">x</xref>' for u in urls)
                   + "</p>", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "semlint.cli", "--rules", str(rules),
         "--cache-dir", str(tmp_path / "cache"), str(doc)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("Malformed URL") == len(urls)


def test_reports_and_packs_do_not_depend_on_the_hash_seed(tmp_path,
                                                          seeded_corpus):
    # set and dict orders of str keys follow PYTHONHASHSEED; nothing that a
    # run prints or stores may
    src = Path(__file__).resolve().parent.parent / "src"
    for format in FORMATS:
        for offline in ([], ["--offline"]):
            outputs = []
            for seed in ("0", "1"):
                cache = tmp_path / f"{format}{len(offline)}-{seed}"
                proc = subprocess.run(
                    [sys.executable, "-m", "semlint.cli", "--rules",
                     *seeded_corpus["rules"], "--cache-dir", str(cache),
                     "--format", format, *offline, *seeded_corpus["inputs"]],
                    env={**os.environ, "PYTHONPATH": str(src),
                         "PYTHONHASHSEED": seed},
                    capture_output=True, timeout=60)
                assert proc.returncode == 0, proc.stderr
                outputs.append((proc.stdout, zlib.decompress(
                    (cache / cli.PACK_NAME).read_bytes())))
            assert outputs[0] == outputs[1]
            # online, the corpus's dead link is probed and reported
            assert offline or b"404" in outputs[0][0]


def test_a_port_out_of_range_is_reported_malformed(tmp_path,
                                                   stub_http_server):
    # port P + 65536 used to wrap round to P, where the stub answers
    port = int(stub_http_server.rsplit(":", 1)[1])
    url = f"http://127.0.0.1:{port + 65536}/x"
    rules = tmp_path / "url.rules"
    rules.write_text(URL_RULES, encoding="utf-8")
    doc = tmp_path / "d.xml"
    doc.write_text(f'<p><xref url="{url}">x</xref></p>', encoding="utf-8")
    cfg = RunConfig(rule_files=[str(rules)], inputs=[str(doc)],
                    cache_dir=str(tmp_path / "cache"), url_timeout=5)
    out, err = io.StringIO(), io.StringIO()
    assert run(cfg, stdout=out, stderr=err) == 0
    assert f"Malformed URL {url}" in out.getvalue()
    assert err.getvalue() == ""


def test_probe_defaults_are_shared(tmp_path, monkeypatch):
    rules, inputs = write_corpus(tmp_path)
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert main(["--rules", rules, "--cache-dir", str(tmp_path / "c"),
                 *inputs]) == 0
    built = seen[0]
    assert (built.max_probes, built.url_timeout) == (DEFAULT_MAX_PROBES,
                                                    DEFAULT_URL_TIMEOUT)
    default = config(tmp_path, rules, inputs)
    assert (default.max_probes, default.url_timeout) == (DEFAULT_MAX_PROBES,
                                                        DEFAULT_URL_TIMEOUT)
    prober = HttpProber()
    assert (prober.max_workers, prober.timeout) == (DEFAULT_MAX_PROBES,
                                                    DEFAULT_URL_TIMEOUT)


DEPTH = 5000


@pytest.mark.parametrize("rules_text", [
    "<raweb> <$X> </raweb> & $X contains <em> <$E> </em> => p($X, $E);\n",
    None], ids=["contains", "raweb-rules"])
def test_deeply_nested_document_checks_cleanly(tmp_path, raweb_rules_text,
                                               rules_text):
    assert DEPTH > sys.getrecursionlimit()
    rules = tmp_path / "deep.rules"
    rules.write_text(rules_text or raweb_rules_text, encoding="utf-8")
    doc = tmp_path / "deep.xml"
    doc.write_text('<raweb year="2003">' + "<section>" * DEPTH
                   + "<em>bottom</em>" + "</section>" * DEPTH + "</raweb>",
                   encoding="utf-8")
    err = io.StringIO()
    cfg = config(tmp_path, str(rules), [str(doc)])
    assert run(cfg, stdout=io.StringIO(), stderr=err) == 0
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("rules_text, doc_text, where", [
    ('<a x=$X/> & $X contains <b/> => p("y");\n', '<a x="1"/>\n',
     "d.xml:1: $X holds a string, not a node: the contains condition of "
     "rule 0 fails"),
    ('<a> <$_> </a> => v := "s";\n'
     '<b/> & v = $V & $V contains <c/> => p("y");\n', "<a>\n<b/></a>\n",
     "d.xml:2: $V holds a string, not a node: the contains condition of "
     "rule 1 fails"),
], ids=["attribute", "environment"])
def test_contains_on_a_string_is_a_diagnostic(tmp_path, monkeypatch,
                                              rules_text, doc_text, where):
    monkeypatch.chdir(tmp_path)
    Path("d.rules").write_text(rules_text, encoding="utf-8")
    Path("d.xml").write_text(doc_text, encoding="utf-8")
    cfg = config(tmp_path, "d.rules", ["d.xml"])
    cold_err, warm_err = io.StringIO(), io.StringIO()
    assert run(cfg, stdout=io.StringIO(), stderr=cold_err) == 0
    assert run(cfg, stdout=io.StringIO(), stderr=warm_err) == 0
    assert cold_err.getvalue() == warm_err.getvalue() == f"semlint: {where}\n"
    assert execute(cfg).cached == ["d.xml"]


@pytest.mark.parametrize("value", ["nan", "inf", "1e12", "0", "-1"])
def test_main_rejects_unusable_url_timeouts(tmp_path, capsys, value):
    rules, inputs = write_corpus(tmp_path)
    assert main(["--rules", rules, "--cache-dir", str(tmp_path / "cache"),
                 "--url-timeout", value, *inputs]) == 2
    assert capsys.readouterr().err == (
        "semlint: error: url timeout must be positive and at most "
        "86400 seconds\n")


def test_largest_url_timeout_is_accepted_by_sockets(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    cfg = config(tmp_path, rules, inputs, url_timeout=MAX_URL_TIMEOUT)
    with socket.socket() as sock:
        sock.settimeout(cfg.url_timeout)


def test_rules_file_not_utf8_is_an_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, inputs = write_corpus(tmp_path)
    Path("bad.rules").write_bytes(b'<a/> => p("\xff");\n')
    out, err = io.StringIO(), io.StringIO()
    assert run(config(tmp_path, "bad.rules", inputs), stdout=out,
               stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "semlint: error: bad.rules: not valid UTF-8: 'utf-8' codec can't "
        "decode byte 0xff in position 11: invalid start byte\n")


def test_rules_file_may_start_with_a_bom(tmp_path):
    rules, inputs = write_corpus(tmp_path)
    plain = execute(config(tmp_path, rules, inputs))
    # the rules are keyed by the digest of their text without the BOM
    key = json.loads(cache_pack.read_lines(tmp_path / "cache")[cache_pack.KEY])
    digest = hashlib.sha256(RULES.encode("utf-8")).hexdigest()
    assert key[2] == [[rules, digest]]
    Path(rules).write_bytes(b"\xef\xbb\xbf" + RULES.encode("utf-8"))
    with_bom = execute(config(tmp_path, rules, inputs))
    assert with_bom.report == plain.report
    assert with_bom.cached == inputs


@pytest.mark.parametrize("depth", [300, 5000])
def test_variable_bound_twice_to_deep_subtrees(tmp_path, monkeypatch, depth):
    # the head compares its first two children: equal chains bind $X, and
    # chains that differ only at the bottom do not
    monkeypatch.chdir(tmp_path)
    Path("d.rules").write_text(
        "<a> <$X> <$X> <$_> </a> => p($X);\n"
        "<r> <$_> </r> ? p($Y) -> <w> twice: <$Y> </w>;\n", encoding="utf-8")

    def chain(text):
        return "<s>" * depth + text + "</s>" * depth
    Path("d.xml").write_text(
        f"<r>\n<a>{chain('x')}{chain('x')}</a>\n"
        f"<a>{chain('x')}{chain('y')}<b/></a>\n</r>\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    assert run(config(tmp_path, "d.rules", ["d.xml"]), stdout=out,
               stderr=err) == 0
    assert out.getvalue() == "d.xml:1: twice: x\n1 messages\n"
    assert err.getvalue() == ""


def test_personne1_matches_a_term_argument_by_value(tmp_path, capsys):
    # personne(f("Doe"), "Doe", "p") used to match the first name "" too
    rules = tmp_path / "r.rules"
    rules.write_text(
        '<staff n=$N> <$_> </staff> => personne(f($N), $N, "p");\n'
        '<pers prenom=$P nom=$N> <$_> </pers> ? personne1($P,$N,"p") / '
        '<li> unknown <$P> <$N> </li>;\n', encoding="utf-8")
    doc = tmp_path / "d.xml"
    doc.write_text('<r>\n<staff n="Doe"/>\n<pers prenom="" nom="Doe"/>\n'
                   '<pers prenom="f(&quot;Doe&quot;)" nom="Doe"/>\n</r>\n',
                   encoding="utf-8")
    assert main(["--rules", str(rules), "--cache-dir", str(tmp_path / "c"),
                 "--offline", str(doc)]) == 0
    assert capsys.readouterr().out == (
        f'{doc}:3: unknown Doe\n{doc}:4: unknown f("Doe") Doe\n'
        f'2 messages\n')
