"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py patches the program from outside, at the names the
program calls: `cli.parse_xml`, `cli.resolve_tests`, `engine.match_node`,
`engine.term_to_text`, `engine.FactStore.lookup`, `builtins.make_registry`
and more.  A change that deletes or renames one of them fails here, not
only in a benchmark run.  A traced run must report what an untraced one
does, and every patch must be undone afterwards.  The cold, warm and edit
runs reach every layer between them, as perfbench's do.
"""

import importlib.util
import sys
from pathlib import Path

from semlint import cli, engine
from semlint.cli import RunConfig, execute

ROOT = Path(__file__).resolve().parent.parent


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_run_reports_what_an_untraced_run_does(seeded_corpus,
                                                      tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    originals = (cli.parse_xml, engine.FactStore.lookup, engine.term_to_text)

    def cfg(cache):
        return RunConfig(rule_files=seeded_corpus["rules"],
                         inputs=seeded_corpus["inputs"],
                         cache_dir=str(tmp_path / cache), format="machine",
                         offline=True)

    plain = execute(cfg("plain"))
    tracer = tracing.Tracer()
    # as perfbench runs them: the edit run misses the memo at one input and
    # decodes the others' entries, which the warm run replays untouched
    edited = Path(seeded_corpus["inputs"][0])
    original = edited.read_text(encoding="utf-8")
    traced = {}
    with tracer.installed():
        for phase in ("cold", "warm", "edit"):
            if phase == "edit":
                edited.write_text(original + "\n", encoding="utf-8")
            traced[phase] = tracer.execute(phase, cfg("traced"),
                                           tracer.prober(5.0, 4))
    assert (cli.parse_xml, engine.FactStore.lookup,
            engine.term_to_text) == originals

    assert plain.messages and plain.diagnostics == []
    for outcome in traced.values():
        assert outcome.report == plain.report
    assert traced["warm"].cached == seeded_corpus["inputs"]
    assert traced["edit"].evaluated == [str(edited)]
    # the memo hit reaches no rule parse or pass 2; it renders the memoised
    # messages once
    warm = [s.name for s in tracer.spans if s.run == "warm"]
    assert {"dsl_parser.parse", "engine.pass2"}.isdisjoint(warm)
    assert warm.count("reporting.emit") == 1
    metrics = tracing.layer_metrics(tracer, list(traced.values()))
    # a layer whose wrapper saw no call reads None
    assert [name for name, (value, _) in metrics.items()
            if value is None] == []
    assert metrics["engine.lookup_calls"][0] > 0
    assert metrics["terms.to_text_calls"][0] == 0
