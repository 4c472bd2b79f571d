#!/usr/bin/env python3
"""semlint benchmark: cold, warm and edit-loop checks of a generated corpus.

    python3 perfbench/run.py --workload teams-crossref --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout.  The corpus comes from `--seed`
(see `corpus.py`); every timed check runs the real `semlint` CLI in a
subprocess with `--format machine` and, except on `urls-live`, `--offline`,
and no tuning flag.  Each repetition runs a cold check (empty cache), a warm
re-check and an edit re-check after one report gained an unknown member;
every report is compared with the generator's oracle.  With `--trace 1` a
separate in-process run wraps the program's layers (`tracing.py`) and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import corpus
from stub_server import StubServer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RULES = HERE / "raweb.rules"
WORK = ROOT / ".perfbench"

CLI_CODE = "import sys; from semlint.cli import main; sys.exit(main())"
SETUP_CODE = ("import pathlib, sys, semlint; "
              "from semlint.dsl_parser import parse_rule_texts; "
              "parse_rule_texts([(pathlib.Path(p).read_text(encoding='utf-8'),"
              " p) for p in sys.argv[1:]])")
MIN_REPS = 3
CHILD_TIMEOUT_S = 60
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "ftp_proxy")
PHASES = ("cold", "warm", "edit")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """Environment for program runs: loopback only, program from `src/`."""
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in PROXY_VARS}
    env["no_proxy"] = env["NO_PROXY"] = "127.0.0.1,localhost"
    env.pop("SEMLINT_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict, out_path: Path,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float, int]:
    """Run one child to its end: (exit code, wall seconds, peak RSS bytes)."""
    with open(out_path, "wb") as out, \
            open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env,
                                cwd=WORK)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


class Bench:
    def __init__(self, name: str, spec: dict, seed: int, inject: str):
        self.name = name
        self.params = spec["params"]
        self.seed = seed
        self.inject = inject
        self.live = bool(self.params.get("xrefs"))
        self.env = dict(os.environ)
        self.dir = WORK / f"{name}-{seed}"
        self.cache = self.dir / "cache"
        self.server = None
        self.corpus = None
        self.paths: list[str] = []
        self.texts: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[str, str] = {}   # phase -> rep-0 CLI report

    # -- inputs ---------------------------------------------------------------

    def make_corpus(self, base_url: str = "", refused_url: str = "") -> None:
        self.corpus = corpus.generate(self.params, self.seed, base_url,
                                      refused_url)
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True)
        self.texts = self.corpus.texts()
        for i, text in enumerate(self.texts):
            path = inputs / self.corpus.file_name(i)
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))
        self.input_bytes = sum(len(t.encode("utf-8")) for t in self.texts)
        self.edit_order = list(range(len(self.paths)))
        random.Random(self.seed).shuffle(self.edit_order)
        # stub replies one CLI run must cause: HEAD per distinct URL, and a
        # GET after each 405
        kinds = self.url_counts = Counter(self.corpus.url_kinds.values())
        self.expected_replies = +Counter({
            ("HEAD", 200): kinds[corpus.URL_OK],
            ("HEAD", 404): kinds[corpus.URL_404],
            ("HEAD", 405): kinds[corpus.URL_405],
            ("GET", 200): kinds[corpus.URL_405]})

    def apply_edit(self, rep: int):
        """Rewrite one report: (index, its oracle, digest changed or not)."""
        i = self.edit_order[rep % len(self.paths)]
        edited = self.corpus.with_edit(i, rep)
        path = Path(self.paths[i])
        before = hashlib.sha256(path.read_bytes()).digest()
        path.write_text(edited.texts()[i], encoding="utf-8")
        changed = hashlib.sha256(path.read_bytes()).digest() != before
        return i, edited.expected(self.paths), changed

    def restore(self, i: int) -> None:
        Path(self.paths[i]).write_text(self.texts[i], encoding="utf-8")

    # -- measured runs --------------------------------------------------------

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing semlint and its rules."""
        code, wall, _ = run_child(
            [sys.executable, "-c", SETUP_CODE, str(RULES)], self.env,
            self.dir / "setup.out")
        if code != 0:
            raise BenchError("rule loading failed: " + (
                self.dir / "setup.err").read_text(errors="replace"))
        return wall

    def cli(self, phase: str, want: Counter,
            problems: list[str] | None = None) -> tuple[float, int, str]:
        args = [sys.executable, "-c", CLI_CODE, "--rules", str(RULES),
                "--cache-dir", str(self.cache), "--format", "machine"]
        if not self.live:
            args.append("--offline")
        args += self.paths
        before = Counter(self.server.replies) if self.server else None
        out = self.dir / f"{phase}.out"
        code, wall, rss = run_child(args, self.env, out)
        report = out.read_bytes().decode("utf-8", errors="replace")
        self.attempted += 1
        problems = list(problems or [])
        if code != 0:
            problems.append(f"exit code {code}: " + out.with_suffix(
                ".err").read_text(errors="replace")[-500:])
        else:
            if self.inject == "drop-line" and report.count("\n") > 1:
                report = report.split("\n", 1)[1]
            problems += corpus.check_report(report, want)
        if self.server is not None:
            got = Counter(self.server.replies)
            got.subtract(before)
            if +got != self.expected_replies:
                problems.append(f"stub replies {dict(+got)} != expected "
                                f"{dict(self.expected_replies)}")
        self._fail(phase, problems)
        return wall, rss, report

    def timed_reps(self, seconds: float) -> dict[str, list[float]]:
        """Repeat set-up, cold, warm and edit runs until `seconds` pass.

        The machine's speed drifts over tens of seconds, so every metric is
        sampled once per repetition across the whole window rather than in
        one burst.
        """
        want = self.corpus.expected(self.paths)
        out: dict[str, list[float]] = {k: [] for k in
                                       ("setup", "cold", "warm", "edit",
                                        "rss", "ratio")}
        # the first start compiles byte code, which users pay once
        self.setup_time()
        deadline = time.perf_counter() + seconds
        rep = 0
        while rep < MIN_REPS or time.perf_counter() < deadline:
            out["setup"].append(self.setup_time())
            shutil.rmtree(self.cache, ignore_errors=True)
            wall, rss, report = self.cli("cold", want)
            out["cold"].append(wall)
            out["rss"].append(rss / 2**20)
            out["ratio"].append(dir_bytes(self.cache) / self.input_bytes)
            self.reports.setdefault("cold", report)
            wall, _, report = self.cli("warm", want)
            out["warm"].append(wall)
            self.reports.setdefault("warm", report)
            i, edited_want, changed = self.apply_edit(rep)
            wall, _, report = self.cli("edit", edited_want,
                                       [] if changed else
                                       ["the edit left the digest unchanged"])
            out["edit"].append(wall)
            self.reports.setdefault("edit", report)
            self.restore(i)
            rep += 1
        return out

    # -- traced run -----------------------------------------------------------

    def traced_run(self, cold_cli_s: float) -> tuple[dict, dict]:
        sys.path.insert(0, str(SRC))
        import tracing
        from semlint import cli
        cache = self.dir / "trace-cache"
        cfg = cli.RunConfig(rule_files=[str(RULES)], inputs=list(self.paths),
                            cache_dir=str(cache), format="machine",
                            offline=not self.live)
        start = time.perf_counter()
        plain = cli.execute(cfg)
        untraced_cold = time.perf_counter() - start
        shutil.rmtree(cache)
        self.attempted += 1
        if plain.report != self.reports["cold"]:
            self._fail("in-process cold run", ["report differs from the "
                                               "CLI report"])

        tracer = tracing.Tracer()
        outcomes = {}
        before = Counter(self.server.replies) if self.server else None
        with tracer.installed():
            for phase in PHASES:
                edited = None
                if phase == "edit":
                    edited, _, _ = self.apply_edit(0)
                prober = tracer.prober(cfg.url_timeout, cfg.max_probes)
                outcomes[phase] = tracer.execute(phase, cfg, prober)
                if edited is not None:
                    self.restore(edited)
                self.attempted += 1
        shutil.rmtree(cache)
        for phase in PHASES:
            report = outcomes[phase].report
            if self.inject == "trace-mismatch" and phase == "cold":
                report += "\n"
            if report != self.reports[phase]:
                self._fail(f"traced {phase} run", ["report differs from the "
                                                   "untraced CLI report"])
        self._check_outcomes(outcomes)
        if self.server is not None:
            self._check_probes(tracer, before)

        metrics = tracing.layer_metrics(tracer, list(outcomes.values()))
        traced_cold = tracer.inclusive("cli.execute", "cold")
        metrics["trace.overhead_s"] = (traced_cold - untraced_cold, "s")
        metrics["src.lines"] = (src_lines(), "lines")
        urls = tracing.url_timings(tracer)
        shares = {phase: tracer.shares(phase) for phase in PHASES}
        missing = [n for n, (v, _) in metrics.items() if v is None]
        missing += [n for n, v in urls.items() if v is None]
        dump = {"workload": self.name, "seed": self.seed,
                "untraced_cold_in_process_s": untraced_cold,
                "cli_cold_s": cold_cli_s, "url_timings": urls,
                "missing": missing, "shares": shares,
                "spans": [vars(s) for s in tracer.spans]}
        (self.dir / "trace.json").write_text(json.dumps(dump), "utf-8")
        return metrics, urls, missing, shares

    def _fail(self, what: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems[:5]))

    def _check_outcomes(self, outcomes) -> None:
        edited = self.paths[self.edit_order[0]]
        want = {"cold": (self.paths, []), "warm": ([], self.paths),
                "edit": ([edited], [p for p in self.paths if p != edited])}
        for phase, (evaluated, cached) in want.items():
            o = outcomes[phase]
            if o.evaluated != evaluated or o.cached != cached:
                self.problems.append(
                    f"traced {phase}: evaluated {len(o.evaluated)} and "
                    f"cached {len(o.cached)} files, expected "
                    f"{len(evaluated)} and {len(cached)}")

    def _check_probes(self, tracer, before: Counter) -> None:
        kinds = self.url_counts
        runs = len(PHASES)
        ok = runs * (kinds[corpus.URL_OK] + kinds[corpus.URL_405])
        failed = runs * (kinds[corpus.URL_404] + kinds[corpus.URL_REFUSED])
        got_ok = tracer.counts["builtins.probe_ok"]
        got_failed = tracer.counts["builtins.probe_failed"]
        if (got_ok, got_failed) != (ok, failed):
            self.problems.append(f"probes ok/failed {got_ok}/{got_failed}, "
                                 f"stub planted {ok}/{failed}")
        got = Counter(self.server.replies)
        got.subtract(before)
        want = Counter({k: runs * v for k, v in
                        self.expected_replies.items()})
        if +got != want:
            self.problems.append(f"traced stub replies {dict(+got)} != "
                                 f"{dict(want)}")


def metric(value, unit: str) -> dict:
    # the result line holds numbers only: a missing layer reads 0 there and
    # is named on the "missing layers" line and in trace.json
    return {"value": 0 if value is None else value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # fault injection for selfcheck.py: proves the correctness gates bite
    ap.add_argument("--inject", choices=("drop-line", "trace-mismatch"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--params", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "semlint" / "cli.py").is_file():
        print(f"perfbench: no semlint sources under {SRC}", file=sys.stderr)
        return 2
    workloads = json.loads((HERE / "workloads.json").read_text("utf-8"))
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    if args.params:
        spec = {**spec, "params": {**spec["params"],
                                   **json.loads(args.params)}}
    # the traced in-process run probes URLs too: same loopback-only settings
    env = child_env()
    os.environ.clear()
    os.environ.update(env)

    bench = Bench(args.workload, spec, args.seed, args.inject)
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    try:
        with contextlib.ExitStack() as stack:
            if bench.live:
                bench.server = stack.enter_context(
                    StubServer(bench.params["reply_delay_s"]))
                bench.make_corpus(bench.server.base_url,
                                  bench.server.refused_url)
            else:
                bench.make_corpus()
            return _measure(bench, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _measure(bench: Bench, args) -> int:
    reps = bench.timed_reps(args.seconds)
    med = {k: statistics.median(v) for k, v in reps.items()}
    (bench.dir / "samples.json").write_text(json.dumps(reps), "utf-8")
    n_cli, failed_cli = bench.attempted, bench.failed

    print(f"workload {bench.name} seed {bench.seed}: {len(bench.paths)} "
          f"files, {bench.input_bytes} input bytes, {len(reps['cold'])} "
          f"repetitions, src/ {src_lines()} lines")
    for key in ("setup", "cold", "warm", "edit"):
        q = statistics.quantiles(reps[key], n=4) if len(reps[key]) > 1 \
            else [reps[key][0]] * 3
        print(f"  {key}_s median {med[key]:.4f}  quartiles {q[0]:.4f} "
              f"{q[2]:.4f}  n={len(reps[key])}")
    if args.trace:
        layers, urls, missing, shares = bench.traced_run(med["cold"])
        metrics = {name: metric(*vu) for name, vu in layers.items()}
        top = sorted(((v, k) for k, v in shares["cold"]["inclusive"].items()
                      if k != "cli.execute"), reverse=True)[:5]
        print("  traced cold inclusive shares: " + ", ".join(
            f"{k} {v:.3f}" for v, k in top))
        print("  URL layer: " + (", ".join(
            f"{k} {v:.4f}" for k, v in urls.items() if v is not None) or "-"))
        print(f"  missing layers (no call seen): {', '.join(missing) or '-'}")
    else:
        metrics = {
            "setup_s": metric(med["setup"], "s"),
            "cold_s": metric(med["cold"], "s"),
            "warm_s": metric(med["warm"], "s"),
            "edit_s": metric(med["edit"], "s"),
            "peak_rss_mb": metric(med["rss"], "MB"),
            "cache_ratio": metric(med["ratio"], "bytes/byte"),
            "ok_share": metric((n_cli - failed_cli) / n_cli, "fraction"),
        }
    for problem in bench.problems:
        print(f"  FAILED: {problem}")
    correct = not bench.problems
    result = {"correct": correct, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
