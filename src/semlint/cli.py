"""Command-line orchestrator: incremental pass 1, merge, resolve, report.

Pass-1 results are cached per input file, keyed on content digests of both
the input and the ruleset, so an unchanged file is never re-evaluated and a
warm run reproduces the cold-run report byte for byte.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from . import builtins as builtins_mod
from .dsl_parser import LexError, ParseError, parse_rule_texts
from .engine import (EngineError, PassOneResult, evaluate_file, merge_facts,
                     parse_pass1, projection, resolve_tests, serialize_pass1)
from .record import Record
from .reporting import FORMATS, Message, emit_report
from .rule_ast import RuleSet
from .xml_frontend import EncodingError, MalformedXml, parse_xml

CACHE_DIR_ENV = "SEMLINT_CACHE_DIR"


class CliError(Exception):
    pass


class RunConfig(Record):
    __slots__ = ("rule_files", "inputs", "cache_dir", "format", "offline",
                 "url_timeout", "max_probes", "normalize_names",
                 "fail_on_warnings", "output")

    def __init__(self, rule_files: list[str], inputs: list[str],
                 cache_dir: str, format: str = "text", offline: bool = False,
                 url_timeout: float = builtins_mod.DEFAULT_URL_TIMEOUT,
                 max_probes: int = builtins_mod.DEFAULT_MAX_PROBES,
                 normalize_names: bool = False,
                 fail_on_warnings: bool = False, output: str | None = None):
        if not rule_files:
            raise CliError("at least one rule file is required")
        if not inputs:
            raise CliError("at least one input file is required")
        if format not in FORMATS:
            raise CliError(f"unknown report format {format!r}")
        # NaN fails this test too; inf or a huge value would overflow the
        # socket timeout on the first probe
        if not 0 < url_timeout <= builtins_mod.MAX_URL_TIMEOUT:
            raise CliError(f"url timeout must be positive and at most "
                           f"{builtins_mod.MAX_URL_TIMEOUT:g} seconds")
        if max_probes < 1:
            raise CliError("max probes must be >= 1")
        self.rule_files = rule_files
        self.inputs = inputs
        self.cache_dir = cache_dir
        self.format = format
        self.offline = offline
        self.url_timeout = url_timeout
        self.max_probes = max_probes
        self.normalize_names = normalize_names
        self.fail_on_warnings = fail_on_warnings
        self.output = output


class RunOutcome(Record):
    __slots__ = ("report", "messages", "diagnostics", "exit_code",
                 "evaluated", "cached")

    def __init__(self, report: str, messages: list[Message],
                 diagnostics: list[str], exit_code: int,
                 evaluated: list[str] | None = None,
                 cached: list[str] | None = None):
        self.report = report
        self.messages = messages
        self.diagnostics = diagnostics
        self.exit_code = exit_code
        self.evaluated = [] if evaluated is None else evaluated
        self.cached = [] if cached is None else cached


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expand_inputs(patterns: list[str]) -> list[str]:
    """Each argument as the path it names, else as a glob of paths.

    A shell has already expanded its globs, so an existing path such as
    rep[1].xml is taken literally, never re-globbed.
    """
    out: list[str] = []
    for pattern in patterns:
        if os.path.exists(pattern) or not any(c in pattern for c in "*?["):
            out.append(pattern)
        else:
            matches = sorted(glob.glob(pattern))
            if not matches:
                raise CliError(f"no input matches pattern {pattern!r}")
            out.extend(matches)
    return out


def _cache_path(cache_dir: str, input_path: str) -> Path:
    return Path(cache_dir) / (_sha256(input_path.encode("utf-8")) + ".pass1")


def _cached_result(cache_dir: str, input_path: str, input_digest: str,
                   ruleset: RuleSet) -> PassOneResult | None:
    """None on any miss: absent, damaged, older-format or other content."""
    try:
        text = _cache_path(cache_dir, input_path).read_text(encoding="utf-8")
        return parse_pass1(text, input_path, input_digest, ruleset)
    # json.loads recurses once per nesting level of a damaged entry
    except (OSError, ValueError, RecursionError):
        return None


def _write_cache(path: Path, text: str) -> None:
    # a unique temp file renamed into place: concurrent processes writing the
    # same entry never interleave, and a torn file can only read as a miss
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_ruleset(cfg: RunConfig) -> RuleSet:
    pairs = []
    for path in cfg.rule_files:
        # "utf-8-sig" drops a leading BOM, as parse_xml accepts one; the
        # digest of a file without one is unchanged
        try:
            pairs.append((Path(path).read_text(encoding="utf-8-sig"), path))
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not valid UTF-8: {exc}") from None
    return parse_rule_texts(pairs)


def execute(cfg: RunConfig, prober=None) -> RunOutcome:
    ruleset = _load_ruleset(cfg)
    # a miss builds only the nodes that the rules can observe
    projected = projection(ruleset)
    inputs = expand_inputs(cfg.inputs)
    Path(cfg.cache_dir).mkdir(parents=True, exist_ok=True)

    # a repeated path is probed and evaluated once; `ordered` keeps repeats.
    # A miss is parsed from the bytes digested, so one input is read once
    # and only its bytes and tree are alive while it is evaluated.
    results: dict[str, PassOneResult] = {}
    evaluated: list[str] = []
    cached: list[str] = []
    for path in dict.fromkeys(inputs):
        data = Path(path).read_bytes()
        digest = _sha256(data)
        result = _cached_result(cfg.cache_dir, path, digest, ruleset)
        if result is None:
            result = evaluate_file(parse_xml(data, path, projected),
                                   ruleset, path)
            _write_cache(_cache_path(cfg.cache_dir, path),
                         serialize_pass1(result, digest, ruleset))
            evaluated.append(path)
        else:
            cached.append(path)
        results[path] = result

    ordered = [results[path] for path in inputs]
    store = merge_facts(ordered)
    tests = [dt for result in ordered for dt in result.tests]

    if prober is None:
        prober = builtins_mod.HttpProber(cfg.url_timeout, cfg.max_probes)
    if not cfg.offline:
        prober.prefetch(builtins_mod.urls_to_probe(tests))
    registry = builtins_mod.make_registry(
        prober=prober, offline=cfg.offline,
        normalize_names=cfg.normalize_names)

    messages, resolve_diags = resolve_tests(tests, store, registry)
    diagnostics = [d for result in ordered for d in result.diagnostics]
    diagnostics.extend(resolve_diags)

    report = emit_report(messages, diagnostics, cfg.format)
    if cfg.fail_on_warnings and (messages or diagnostics):
        exit_code = 1
    else:
        exit_code = 0
    return RunOutcome(report, messages, diagnostics, exit_code,
                      evaluated=evaluated, cached=cached)


def run(cfg: RunConfig, prober=None,
        stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        outcome = execute(cfg, prober=prober)
    except (CliError, LexError, ParseError, EngineError, MalformedXml,
            EncodingError, OSError) as exc:
        print(f"semlint: error: {exc}", file=stderr)
        return 2
    if cfg.output:
        try:
            Path(cfg.output).write_text(outcome.report, encoding="utf-8")
        except OSError as exc:
            print(f"semlint: error: {exc}", file=stderr)
            return 2
    else:
        stdout.write(outcome.report)
    for diag in sorted(set(outcome.diagnostics)):
        print(f"semlint: {diag}", file=stderr)
    return outcome.exit_code


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semlint",
        description="Check XML documents against semantic consistency rules")
    parser.add_argument("--rules", nargs="+", required=True, metavar="FILE",
                        help="rule file(s), concatenated in order")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_DIR_ENV),
                        help=f"pass-1 cache directory (or ${CACHE_DIR_ENV})")
    parser.add_argument("--format", choices=FORMATS,
                        default="text")
    parser.add_argument("--offline", action="store_true",
                        help="never touch the network; URL tests are silent")
    parser.add_argument("--url-timeout", type=float,
                        default=builtins_mod.DEFAULT_URL_TIMEOUT,
                        metavar="SECS")
    parser.add_argument("--max-probes", type=int,
                        default=builtins_mod.DEFAULT_MAX_PROBES, metavar="N",
                        help="max concurrent URL probes")
    parser.add_argument("--normalize-names", action="store_true",
                        help="case/accent-insensitive member name matching")
    parser.add_argument("--fail-on-warnings", action="store_true")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="XML input files (globs allowed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if not args.cache_dir:
        print("semlint: error: --cache-dir is required "
              f"(or set ${CACHE_DIR_ENV})", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig(
            rule_files=args.rules, inputs=args.inputs,
            cache_dir=args.cache_dir, format=args.format,
            offline=args.offline, url_timeout=args.url_timeout,
            max_probes=args.max_probes,
            normalize_names=args.normalize_names,
            fail_on_warnings=args.fail_on_warnings,
            output=args.output)
    except CliError as exc:
        print(f"semlint: error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
