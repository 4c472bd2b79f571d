"""Command-line orchestrator: incremental pass 1, merge, resolve, report.

Pass-1 results are cached per input file, keyed on content digests of the
input, the ruleset and semlint's own modules and on the interpreter's
major.minor, so an unchanged file is never re-evaluated and a warm run
reproduces the cold-run report byte for byte.  As under make, an offline
run whose rules, inputs and options are all unchanged replays the messages
and diagnostics memoised by the last one, without loading the engine: a
message is memoised as the values of its rule's template, which a replay
fills with record.fill, as pass 2 did.  A cache dir holds one file,
compressed at zlib's default level, read once and written at most once
per run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
import tempfile
import zlib
from importlib import import_module
from pathlib import Path

from . import (DEFAULT_MAX_PROBES, DEFAULT_URL_TIMEOUT, FORMATS,
               MAX_URL_TIMEOUT, SemlintError)
from .record import (ARG, ATTR, CONTENT, POSITION_VARS, Message, Record,
                     SourcePos, emit_report, fill)

CACHE_DIR_ENV = "SEMLINT_CACHE_DIR"
# its lines: the key, the outcome (null after an online run), the index of
# [path, digest of the input its entry was computed from], and one pass-1
# entry per index row in that order.  Each input digest is stored once.  The
# outcome is [templates, messages, diagnostics]: [rule index, *template]
# once per rule that a message uses, and a message as [file, line, rule
# index, values, solution key], its values those of the template's names
# but $SourceFile and $SourceLine, which are its file and line.
PACK_NAME = "run.cache"
# the module of each name that a run binds here on its first miss; through
# __getattr__ (PEP 562) cli.<name> is readable and patchable before that
_ENGINE = {"parse_rule_texts": "dsl_parser", "parse_xml": "xml_frontend",
           **dict.fromkeys(("evaluate_file", "parse_pass1", "serialize_pass1",
                            "merge_facts", "resolve_tests", "projection"),
                           "engine")}


def _load_engine() -> None:
    for name, module in _ENGINE.items():
        # a name already bound, such as a tracer's wrapper, stays bound
        if name not in globals():
            globals()[name] = getattr(import_module(f".{module}", __package__),
                                      name)


def __getattr__(name: str):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_engine()
    return globals()[name]


class CliError(SemlintError):
    pass


class RunConfig(Record):
    __slots__ = ("rule_files", "inputs", "cache_dir", "format", "offline",
                 "url_timeout", "max_probes", "normalize_names",
                 "fail_on_warnings", "output")

    def __init__(self, rule_files: list[str], inputs: list[str],
                 cache_dir: str, format: str = "text", offline: bool = False,
                 url_timeout: float = DEFAULT_URL_TIMEOUT,
                 max_probes: int = DEFAULT_MAX_PROBES,
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
        if not 0 < url_timeout <= MAX_URL_TIMEOUT:
            raise CliError(f"url timeout must be positive and at most "
                           f"{MAX_URL_TIMEOUT:g} seconds")
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _code_digest() -> str:
    """The digest of this package's modules, by name and bytes, so that a
    pack written by other code is a miss; __pycache__ is left out."""
    rows = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        with open(path, "rb") as f:  # Path.read_bytes is for inputs
            rows.append([path.name, _sha256(f.read())])
    return _sha256(json.dumps(rows).encode("utf-8"))


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


def _rows(value, types: list) -> bool:
    """Whether a decoded JSON value is a list of rows of these item types."""
    return type(value) is list and all(
        type(row) is list and list(map(type, row)) == types for row in value)


def _read_pack(cache_dir: str, key: list) -> tuple[list, list[bytes], list]:
    """The key, lines and index of the pack; ([], [], []) if it is absent or
    damaged, or if its key does not start with key (the code, interpreter
    and ruleset), which makes every entry a miss."""
    try:
        with open(Path(cache_dir) / PACK_NAME, "rb") as f:
            lines = zlib.decompress(f.read()).split(b"\n")
        old, index = json.loads(lines[0]), json.loads(lines[2])
        if old[:3] == key and _rows(index, [str, str]):
            return old, lines, index
    # json.loads recurses once per nesting level of a damaged line
    except (OSError, LookupError, ValueError, TypeError, RecursionError,
            zlib.error):
        pass
    return [], [], []


def _strings(value) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


def _form(form, names: list) -> bool:
    """Whether a decoded template form holds literals and slots alone."""
    return type(form) is list and all(
        type(s) is str or type(s) is list and list(map(type, s)) == [int, str]
        and 0 <= s[0] < len(names) and s[1] in (CONTENT, ATTR, ARG)
        for s in form)


def _read_outcome(text: bytes):
    """(messages, diagnostics) from the outcome line, or None."""
    try:
        templates, rows, diagnostics = json.loads(text)
        if not (_rows(templates, [int, list, list, list])
                and _rows(rows, [str, int, int, list, str])
                and _strings(diagnostics)):
            return None
        # rule index -> its forms, the types of a message's values, and the
        # place of each of its position's values among them
        by_rule = {}
        for rule, names, html, text in templates:
            if rule in by_rule or not (_strings(names) and _form(
                    html, names) and _form(text, names)):
                return None
            places = [(i, name) for i, name in enumerate(names)
                      if name in POSITION_VARS]
            by_rule[rule] = (html, text, [str] * (len(names) - len(places)),
                             places)
        messages = []
        for file, line, rule, values, key in rows:
            html, text, types, places = by_rule[rule]
            if list(map(type, values)) != types:
                return None
            full = values[:]
            for i, name in places:
                full.insert(i, file if name == "SourceFile" else str(line))
            messages.append(Message(
                SourcePos(file, line), rule, fill(html, full, True),
                fill(text, full, False), key, values))
        return messages, diagnostics
    except (ValueError, TypeError, LookupError, RecursionError):
        return None


def _write_cache(path: Path, data: bytes) -> bytes:
    """Write data zlib-compressed; returns the bytes written."""
    # the default level: a fifth smaller than level 1 for about 1.4 ms
    data = zlib.compress(data)
    # a unique temp file renamed into place: concurrent processes writing the
    # same file never interleave, and a torn file can only read as a miss
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return data


def _read_rules(cfg: RunConfig) -> list[tuple[str, str]]:
    """(text, path) of each rule file, in order."""
    pairs = []
    for path in cfg.rule_files:
        # "utf-8-sig" drops a leading BOM, as parse_xml accepts one; the
        # digest of a file without one is unchanged
        try:
            pairs.append((Path(path).read_text(encoding="utf-8-sig"), path))
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not valid UTF-8: {exc}") from None
    return pairs


def _load_ruleset(pairs: list[tuple[str, str]]):
    """The ruleset of the rule texts that the cache key digested."""
    _load_engine()
    return parse_rule_texts(pairs)


def _resolve(cfg: RunConfig, prober, ordered: list, ruleset):
    """Pass 2 over the inputs' pass-1 results, in order, and the report."""
    from . import builtins as builtins_mod
    store = merge_facts(ordered, ruleset)
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
    return report, messages, diagnostics


def execute(cfg: RunConfig, prober=None) -> RunOutcome:
    rules = _read_rules(cfg)
    # a pack is read only if semlint's code, the interpreter (str methods
    # follow its Unicode version) and the rule texts as read are unchanged
    key = [_code_digest(), [*sys.version_info[:2]],
           [[path, _sha256(text.encode("utf-8"))] for text, path in rules]]
    old, lines, index = _read_pack(cfg.cache_dir, key)
    # the options and inputs decide only whether the memo replays.  A
    # non-offline run may probe URLs: it neither replays nor memoises
    key += [cfg.format, cfg.normalize_names]
    replay = cfg.offline and old[:5] == key
    # the rules of a memo were parsed when it was written; parse them on a miss
    ruleset = None if replay else _load_ruleset(rules)
    inputs = expand_inputs(cfg.inputs)
    key.append(inputs)
    replay = replay and old == key
    digests = dict(index)
    Path(cfg.cache_dir).mkdir(parents=True, exist_ok=True)

    # a repeated path is probed and evaluated once; pass 2 sees each repeat.
    # While each input's digest matches the index, the input waits, and once
    # all match the outcome is decoded.  From the first that does not, the
    # waiting entries are decoded, and a miss is parsed from the bytes
    # digested before the next read: one input is read once.
    distinct = list(dict.fromkeys(inputs))
    results, evaluated, cached, waiting = {}, [], [], []
    entries = memo = outcome = None
    try:
        for i, path in enumerate(distinct):
            data = Path(path).read_bytes()
            waiting.append((path, data, _sha256(data)))
            if replay and digests.get(path) == waiting[-1][2] and (
                    i + 1 < len(distinct)
                    or (memo := _read_outcome(lines[1]))):
                continue
            replay = False
            if entries is None:
                ruleset = ruleset or _load_ruleset(rules)
                # a miss builds only the nodes that the rules can observe
                projected = projection(ruleset)
                # path -> (digest of the input it was computed from, entry)
                entries = {path: (digest, entry) for (path, digest), entry
                           in zip(index, lines[3:])}
            for path, data, digest in waiting:
                # an entry that is absent, damaged, or computed from other
                # content is a miss
                computed_from, entry = entries.get(path, ("", b""))
                try:
                    result = parse_pass1(entry.decode("utf-8")
                                         if computed_from == digest else "",
                                         path, ruleset)
                    cached.append(path)
                except (ValueError, RecursionError):
                    result = evaluate_file(parse_xml(data, path, projected),
                                           ruleset, path)
                    entries[path] = (digest, serialize_pass1(
                        result).encode("utf-8"))
                    evaluated.append(path)
                results[path] = result
            waiting.clear()
        if replay:
            messages, diagnostics = memo
            report = emit_report(messages, diagnostics, cfg.format)
            cached = distinct
        else:
            report, messages, diagnostics = _resolve(cfg, prober, [
                results[path] for path in inputs], ruleset)
            if cfg.offline:
                # each template that a message uses, once
                templates = {m.rule_index: ruleset.rules[
                    m.rule_index].body.template for m in messages}
                outcome = [[[i, *t] for i, t in templates.items()], [
                    [m.pos.file, m.pos.line, m.rule_index, m.values,
                     m.solution_key] for m in messages], diagnostics]
    finally:
        # one write, also when a bad input stops the run.  The entries this
        # run did not use are carried over verbatim while their path exists;
        # a path that comes back is a miss
        if outcome or evaluated:
            kept = {path: entry for path, entry in entries.items()
                    if path in results or os.path.exists(path)}
            _write_cache(Path(cfg.cache_dir) / PACK_NAME, b"\n".join([
                json.dumps(doc, separators=(",", ":")).encode("utf-8")
                for doc in (key, outcome, [[path, digest] for path, (
                    digest, _) in kept.items()])]
                + [entry for _, entry in kept.values()]))
    exit_code = 1 if cfg.fail_on_warnings and (messages or diagnostics) else 0
    return RunOutcome(report, messages, diagnostics, exit_code, evaluated,
                      cached)


def run(cfg: RunConfig, prober=None,
        stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        outcome = execute(cfg, prober=prober)
    except (SemlintError, OSError) as exc:
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
    parser.add_argument("--rules", nargs="+", action="extend", required=True,
                        metavar="FILE",
                        help="rule file(s), concatenated in order")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_DIR_ENV),
                        help=f"pass-1 cache directory (or ${CACHE_DIR_ENV})")
    parser.add_argument("--format", choices=FORMATS,
                        default="text")
    parser.add_argument("--offline", action="store_true",
                        help="never touch the network; URL tests are silent")
    parser.add_argument("--url-timeout", type=float,
                        default=DEFAULT_URL_TIMEOUT, metavar="SECS")
    parser.add_argument("--max-probes", type=int,
                        default=DEFAULT_MAX_PROBES, metavar="N",
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
