import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semlint import cli
from semlint.builtins import (DEFAULT_MAX_PROBES, DEFAULT_URL_TIMEOUT,
                              HttpProber)
from semlint.cli import (CliError, RunConfig, _cache_path, execute,
                         expand_inputs, main, run)
from stub_prober import StubProber

RULES = '<pers nom=$N> <$_> </pers> => personne($N);\n' \
        '<check nom=$N/> ? personne($N) / <li> <$N> is unknown, ' \
        'line <$SourceLine> of <$SourceFile>. </li> ;\n'


def write_corpus(root: Path, n_files=3, unknown_in=(1,)):
    rules = root / "check.rules"
    rules.write_text(RULES, encoding="utf-8")
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


def test_expand_inputs_globs_sorted(tmp_path):
    for name in ["b.xml", "a.xml", "c.txt"]:
        (tmp_path / name).touch()
    got = expand_inputs([str(tmp_path / "*.xml")])
    assert [Path(p).name for p in got] == ["a.xml", "b.xml"]
    with pytest.raises(CliError):
        expand_inputs([str(tmp_path / "*.nope")])


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

    def logged_parse_xml(data, path):
        calls.append(("parse", path))
        return parse_xml(data, path)
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
    entries = [json.loads(cache_file(cfg, path).read_text(encoding="utf-8"))
               for path in (short, str(longer))]
    assert entries[0]["tests"] and entries[0]["tests"] == entries[1]["tests"]
    warm = execute(cfg)
    assert warm.cached == cfg.inputs and warm.report == cold.report
    assert str(longer) in warm.report


def cache_file(cfg, path):
    return _cache_path(cfg.cache_dir, path)


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
    entry = cache_file(cfg, str(doc))
    text = entry.read_text(encoding="utf-8")
    # cut at half its length, or at the line start before it if any
    half = len(text) // 2
    entry.write_text(text[:text.rfind("\n", 0, half) + 1 or half],
                     encoding="utf-8")
    again = execute(cfg)
    assert again.evaluated == [str(doc)]
    assert again.report == cold.report
    assert entry.read_text(encoding="utf-8") == text


def _retarget_test(data, rule_index):
    data["tests"][0][0] = rule_index
    return json.dumps(data)


@pytest.mark.parametrize("make_entry", [
    lambda data, path: '{"format": 2}',
    lambda data, path: _retarget_test(data, 99),
    # rule 0 of RULES asserts personne/1; only rule 1 is a check
    lambda data, path: _retarget_test(data, 0),
    # the line-oriented text format of earlier versions
    lambda data, path: (
        f'#input {data["input"]}\n#rules {data["rules"]}\n'
        f'personne("known").\n%tests\ndt("ifnot","1","{path}","3",'
        f'personne($N),bindings(),term("x"))\n%diags\n'),
], ids=["format-only", "rule-99", "environment-rule", "text-format"])
def test_inconsistent_cache_entry_is_a_miss(tmp_path, make_entry):
    rules, inputs = write_corpus(tmp_path, n_files=2, unknown_in=(0,))
    cfg = config(tmp_path, rules, inputs)
    cold = execute(cfg)
    target = cache_file(cfg, inputs[0])
    data = json.loads(target.read_text(encoding="utf-8"))
    target.write_text(make_entry(data, inputs[0]), encoding="utf-8")
    again = execute(cfg)
    assert again.evaluated == [inputs[0]]
    assert again.report == cold.report


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
