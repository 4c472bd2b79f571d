#!/usr/bin/env python3
"""Tiny-scale check that the benchmark's correctness gates bite.

    python3 perfbench/selfcheck.py

For every workload, at a few kilobytes of input, it checks that:
- a clean run passes and prints exactly the metrics `BENCHMARK.json` names,
  end-to-end with `--trace 0` and per-layer with `--trace 1`, each as
  nothing but a number and the unit the manifest gives it;
- a report with one message line dropped fails the oracle;
- a traced report that differs from the untraced one fails the run;
and that, in a directory holding only `BENCHMARK.json` and the benchmark,
the benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = json.loads((HERE / "workloads.json").read_text("utf-8"))
# every report keeps at least one planted defect, so every run has a message
TINY = {"files": 3, "staff": 4, "members": 4, "citations": 4,
        "sections": 1, "pars": 1, "unknown_share": 0.25,
        "wrong_year_share": 0.25, "shared_share": 0.5}
TINY_LIVE = {"xrefs": 6, "urls_distinct": 10, "share_404": 0.2,
             "share_405": 0.2, "share_refused": 0.1}


def bench(workload: str, *extra: str, cwd: Path = ROOT):
    live = "xrefs" in WORKLOADS[workload]["params"]
    params = {**TINY, **(TINY_LIVE if live else {})}
    cmd = [sys.executable, str(cwd / SPEC["command"][1]),
           "--workload", workload, "--seed", "5", "--seconds", "0.1",
           "--params", json.dumps(params), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
    except ValueError:
        result = None
    return proc, result


def well_formed(metrics: dict, spec: list[dict]) -> bool:
    """Exactly the manifest's metrics, each only a number and its unit."""
    units = {m["name"]: m["unit"] for m in spec}
    return set(metrics) == set(units) and all(
        set(m) == {"value", "unit"} and m["unit"] == units[name]
        and isinstance(m["value"], (int, float))
        and not isinstance(m["value"], bool)
        for name, m in metrics.items())


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok     " if ok else "FAILED ") + what)
        if not ok:
            failures.append(what)

    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = bench(w, "--trace", trace)
            expect(proc.returncode == 0 and result is not None
                   and result["correct"] and result["failed"] == 0
                   and well_formed(result["metrics"], SPEC[kind]),
                   f"{w} --trace {trace}: clean run passes with the "
                   f"{kind} metrics")
            if proc.returncode != 0 or result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
        proc, result = bench(w, "--trace", "0", "--inject", "drop-line")
        expect(proc.returncode != 0 and result is not None
               and not result["correct"]
               and result["failed"] == result["attempted"],
               f"{w}: a dropped message line fails the oracle on every run")
        proc, result = bench(w, "--trace", "1", "--inject", "trace-mismatch")
        expect(proc.returncode != 0 and result is not None
               and not result["correct"],
               f"{w}: a traced/untraced report mismatch fails the run")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(SPEC["workloads"][0]["name"], "--trace", "0",
                         cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "without the program's sources the benchmark fails, "
           "printing no result")
    shutil.rmtree(bare)
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
