"""Traced in-process run: spans around semlint's layers, recorded from outside.

Every wrapper is installed at the name the program calls it by (for example
`semlint.cli.parse_xml`, not `semlint.xml_frontend.parse_xml`), so the spans
follow `cli.execute`'s own orchestration.  Spans stay in memory until the
run ends; self time is a span's duration minus what its children cover.
Nothing here edits the program; every patch is undone on exit.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from semlint import builtins as builtins_mod
from semlint import cli, engine, reporting
from semlint.xml_frontend import Element, walk

PREDICATES = ("personne1", "pubbyotherproject", "sameyear", "testurl")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.probe_times: list[float] = []
        self.docs: list[Element] = []
        self.run = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._pass2_open = False
        self.lock = threading.Lock()

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        # pool workers start with an empty stack: their parent is the run
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    def timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def execute(self, run: str, cfg, prober) -> "cli.RunOutcome":
        """One traced `cli.execute`, as the root span of run `run`."""
        self.run = run
        sid = next(self._ids)
        self._root = sid
        start = time.perf_counter()
        try:
            return cli.execute(cfg, prober=prober)
        finally:
            end = time.perf_counter()
            self._root = None
            self.spans.append(Span(sid, "cli.execute", start, end, None, run))

    # -- counters -------------------------------------------------------------

    def _count_match(self, fn):
        @functools.wraps(fn)
        def wrapper(p, n, b):
            result = fn(p, n, b)
            self.counts["matcher.match_calls"] += 1
            if result is not None:
                self.counts["matcher.match_hits"] += 1
            return result
        return wrapper

    def _count_to_text(self, fn):
        @functools.wraps(fn)
        def wrapper(t):
            if self._pass2_open:
                self.counts["terms.to_text_calls"] += 1
            return fn(t)
        return wrapper

    def _pass2(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._pass2_open = True
            try:
                return self.call("engine.pass2", fn, args, kwargs)
            finally:
                self._pass2_open = False
        return wrapper

    def _registry(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            registry = fn(*args, **kwargs)
            wrapped = {}
            for key, pred in registry.items():
                name = f"builtins.{key[0]}"

                def after(_args, result, name=name):
                    self.counts[f"{name}.calls"] += 1
                    self.counts[f"{name}.solutions"] += len(result)
                wrapped[key] = self.timed(name, pred, after)
            return wrapped
        return wrapper

    def _add(self, key, amount):
        self.counts[key] += amount

    # -- patching -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the program's layers for the duration of the block."""
        add = self._add
        patches = [
            (cli, "_load_ruleset", self.timed(
                "dsl_parser.parse", cli._load_ruleset,
                lambda a, r: add("dsl_parser.rules", len(r.rules)))),
            (cli, "parse_xml", self.timed(
                "xml_frontend.parse", cli.parse_xml,
                lambda a, r: (add("xml_frontend.bytes", len(a[0])),
                              self.docs.append(r)))),
            (cli, "evaluate_file", self.timed(
                "engine.pass1", cli.evaluate_file,
                lambda a, r: (add("engine.facts", len(r.facts)),
                              add("engine.tests", len(r.tests))))),
            (cli, "serialize_pass1", self.timed(
                "engine.cache_encode", cli.serialize_pass1,
                lambda a, r: add("engine.cache_bytes",
                                 len(r.encode("utf-8"))))),
            (cli, "parse_pass1", self.timed(
                "engine.cache_decode", cli.parse_pass1)),
            (cli, "merge_facts", self.timed(
                "engine.merge", cli.merge_facts,
                lambda a, r: add("engine.facts_unique", len(r)))),
            (cli, "resolve_tests", self._pass2(cli.resolve_tests)),
            (cli, "emit_report", self.timed(
                "reporting.emit", cli.emit_report,
                lambda a, r: add("reporting.messages", len(set(a[0]))))),
            (engine, "match_node", self._count_match(engine.match_node)),
            (engine, "term_to_text", self._count_to_text(
                engine.term_to_text)),
            (engine.FactStore, "lookup", self.timed(
                "engine.lookup", engine.FactStore.lookup)),
            (builtins_mod, "make_registry", self._registry(
                builtins_mod.make_registry)),
            (reporting, "render_consequence", self.timed(
                "reporting.render", reporting.render_consequence)),
        ]
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def prober(self, timeout: float, max_probes: int) -> "TimingProber":
        return TimingProber(self, timeout, max_probes)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered = _union(span.start, span.end, children.get(span.id, []))
            out[span.id] = span.end - span.start - covered
        return out

    def inclusive(self, name: str, run: str | None = None) -> float | None:
        spans = [s for s in self.spans
                 if s.name == name and (run is None or s.run == run)]
        if not spans:
            return None
        return sum(s.end - s.start for s in spans)

    def shares(self, run: str) -> dict:
        """Per-layer inclusive and self time of one run, as shares of it."""
        own = self.self_times()
        spans = [s for s in self.spans if s.run == run]
        total = sum(s.end - s.start for s in spans if s.name == "cli.execute")
        incl: Counter = Counter()
        self_: Counter = Counter()
        for s in spans:
            incl[s.name] += s.end - s.start
            self_[s.name] += own[s.id]
        return {"total_s": total,
                "inclusive": {k: v / total for k, v in sorted(incl.items())},
                "self": {k: v / total for k, v in sorted(self_.items())}}

    def nodes(self) -> int:
        return sum(1 for doc in self.docs for _ in walk(doc))


def _union(lo: float, hi: float, spans: list[Span]) -> float:
    covered = 0.0
    cursor = lo
    for s in sorted(spans, key=lambda s: s.start):
        start, end = max(s.start, cursor), min(s.end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class TimingProber(builtins_mod.HttpProber):
    """The program's own prober, timing prefetch and every real probe."""

    def __init__(self, tracer: Tracer, timeout: float, max_probes: int):
        super().__init__(timeout, max_probes)
        self._tracer = tracer

    def prefetch(self, urls: list[str]) -> None:
        self._tracer.counts["builtins.urls_distinct"] += len(set(urls))
        self._tracer.call("builtins.prefetch", super().prefetch, (urls,), {})

    def _probe_uncached(self, url: str):
        start = time.perf_counter()
        result = super()._probe_uncached(url)
        elapsed = time.perf_counter() - start
        tracer = self._tracer
        with tracer.lock:
            tracer.probe_times.append(elapsed)
            tracer.counts["builtins.probes"] += 1
            tracer.counts["builtins.probe_ok" if result.live
                          else "builtins.probe_failed"] += 1
        return result


def layer_metrics(tracer: Tracer, outcomes: list) -> dict[str, tuple]:
    """Per-layer metrics summed over the traced runs: name -> (value, unit).

    These are measured on every workload.  A timing whose wrapper saw no
    call is None (missing), never 0 s.
    """
    c = tracer.counts
    own = tracer.self_times()
    roots = [s for s in tracer.spans if s.name == "cli.execute"]
    m: dict[str, tuple] = {
        "dsl_parser.parse_s": (tracer.inclusive("dsl_parser.parse"), "s"),
        "dsl_parser.rules": (c["dsl_parser.rules"], "count"),
        "cli.self_s": (sum(own[s.id] for s in roots) if roots else None, "s"),
        "cli.cache_hits": (sum(len(o.cached) for o in outcomes), "count"),
        "cli.cache_misses": (sum(len(o.evaluated) for o in outcomes),
                             "count"),
        "xml_frontend.parse_s": (tracer.inclusive("xml_frontend.parse"), "s"),
        "xml_frontend.bytes": (c["xml_frontend.bytes"], "bytes"),
        "xml_frontend.nodes": (tracer.nodes(), "count"),
        "engine.pass1_s": (tracer.inclusive("engine.pass1"), "s"),
        "engine.facts": (c["engine.facts"], "count"),
        "engine.tests": (c["engine.tests"], "count"),
        "matcher.match_calls": (c["matcher.match_calls"], "count"),
        "matcher.match_hits": (c["matcher.match_hits"], "count"),
        "matcher.hit_ratio": (
            c["matcher.match_hits"] / c["matcher.match_calls"]
            if c["matcher.match_calls"] else None, "ratio"),
        "engine.cache_encode_s": (tracer.inclusive("engine.cache_encode"),
                                  "s"),
        "engine.cache_decode_s": (tracer.inclusive("engine.cache_decode"),
                                  "s"),
        "engine.cache_bytes": (c["engine.cache_bytes"], "bytes"),
        "engine.merge_s": (tracer.inclusive("engine.merge"), "s"),
        "engine.facts_unique": (c["engine.facts_unique"], "count"),
        "engine.pass2_s": (tracer.inclusive("engine.pass2"), "s"),
        "engine.lookup_calls": (
            sum(1 for s in tracer.spans if s.name == "engine.lookup"),
            "count"),
        "engine.lookup_s": (tracer.inclusive("engine.lookup"), "s"),
        "terms.to_text_calls": (c["terms.to_text_calls"], "count"),
    }
    for pred in PREDICATES:
        name = f"builtins.{pred}"
        m[f"{name}.calls"] = (c[f"{name}.calls"], "count")
        m[f"{name}.solutions"] = (c[f"{name}.solutions"], "count")
        m[f"{name}_s"] = (tracer.inclusive(name), "s")
    m.update({
        "builtins.probes": (c["builtins.probes"], "count"),
        "builtins.urls_distinct": (c["builtins.urls_distinct"], "count"),
        "builtins.probe_ok": (c["builtins.probe_ok"], "count"),
        "builtins.probe_failed": (c["builtins.probe_failed"], "count"),
        "reporting.render_s": (tracer.inclusive("reporting.render"), "s"),
        "reporting.renders": (
            sum(1 for s in tracer.spans if s.name == "reporting.render"),
            "count"),
        "reporting.emit_s": (tracer.inclusive("reporting.emit"), "s"),
        "reporting.messages": (c["reporting.messages"], "count"),
    })
    return m


def url_timings(tracer: Tracer) -> dict[str, float | None]:
    """Timings of the URL layer, which only online runs reach.

    Offline runs never prefetch or probe, so these are None (missing) there
    and are reported beside the per-layer metrics rather than among them.
    """
    return {
        "builtins.prefetch_s": tracer.inclusive("builtins.prefetch"),
        "builtins.probe_p50_s": (statistics.median(tracer.probe_times)
                                 if tracer.probe_times else None),
    }
