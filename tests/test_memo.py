"""The run memo against the runs it stands in for.

An offline run memoises its outcome; the next run with the same key
replays it.  Through a drawn sequence of input edits, option changes, rule
edits, and damage to or deletion of cache entries and of the memo, every
step's outcome must equal that of the same run with its memo deleted and
that of a cold run in an empty cache: all but `evaluated` and `cached`,
which say how the outcome was reached.
"""

import json
import shutil
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from semlint.cli import MEMO_NAME, RunConfig, _cache_path, execute

RULES = [
    '<pers prenom=$P nom=$N> <$_> </pers> => personne($P,$N,"t");\n'
    '<check prenom=$P nom=$N/> ? personne1($P,$N,"t") / <li> <$N> unknown, '
    'line <$SourceLine> of <$SourceFile> </li>;\n',
    # a message template changed
    '<pers prenom=$P nom=$N> <$_> </pers> => personne($P,$N,"t");\n'
    '<check prenom=$P nom=$N/> ? personne1($P,$N,"t") / <li> no <$N> </li>;\n',
    # a rule added, whose predicate is never asserted: a diagnostic
    '<pers prenom=$P nom=$N> <$_> </pers> => personne($P,$N,"t");\n'
    '<check prenom=$P nom=$N/> ? personne1($P,$N,"t") / <li> <$N> </li>;\n'
    '<check nom=$N/> ? nobody($N) / <li> <$N> </li>;\n',
]
NAMES = ["Anne", "Ânne", "Paul"]
N_FILES = 3

files = st.integers(0, N_FILES - 1)
steps = st.one_of(
    st.tuples(st.just("edit"), files, st.sampled_from(NAMES),
              st.sampled_from(NAMES)),
    st.tuples(st.just("format"), st.sampled_from(["html", "text",
                                                  "machine"])),
    st.tuples(st.just("normalize_names"), st.booleans()),
    st.tuples(st.just("fail_on_warnings"), st.booleans()),
    st.tuples(st.just("rules"), st.integers(0, len(RULES) - 1)),
    st.tuples(st.just("inputs"), st.lists(files, min_size=1, max_size=4)),
    st.tuples(st.just("damage"), st.sampled_from(["entry", "memo"]), files,
              st.sampled_from(["truncate", "plain", "not-json", "older"])),
    st.tuples(st.just("delete"), st.sampled_from(["entry", "memo"]), files),
)


def document(declared: str, checked: str) -> str:
    return (f'<team>\n<pers prenom="x" nom="{declared}"><r/></pers>\n'
            f'<check prenom="x" nom="{checked}"/>\n</team>\n')


def damage(path: Path, how: str) -> None:
    data = path.read_bytes()
    if how == "truncate":
        path.write_bytes(data[:len(data) // 2])
    elif how == "plain":
        path.write_bytes(zlib.decompress(data))
    elif how == "not-json":
        path.write_bytes(zlib.compress(b"[1, 2"))
    else:
        # a consistent file of an older format
        doc = json.loads(zlib.decompress(data))
        if path.name == MEMO_NAME:
            doc[0][0] -= 1
        else:
            doc["format"] -= 1
        path.write_bytes(zlib.compress(json.dumps(doc).encode("utf-8")))


def outcome(cfg: RunConfig) -> tuple:
    o = execute(cfg)
    return o.report, o.messages, o.diagnostics, o.exit_code


@given(st.lists(steps, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_memo_replays_what_a_cold_run_reports(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rules = root / "check.rules"
        rules.write_text(RULES[0], encoding="utf-8")
        inputs = [str(root / f"team{i}.xml") for i in range(N_FILES)]
        for i, path in enumerate(inputs):
            Path(path).write_text(document(NAMES[0], NAMES[i]),
                                  encoding="utf-8")
        options = {"inputs": inputs, "format": "text",
                   "normalize_names": False, "fail_on_warnings": False}
        cache = root / "cache"

        def config(cache_dir: Path) -> RunConfig:
            return RunConfig(rule_files=[str(rules)], cache_dir=str(cache_dir),
                             offline=True, **options)

        execute(config(cache))
        for n, step in enumerate(drawn):
            kind, *args = step
            if kind == "edit":
                Path(inputs[args[0]]).write_text(document(*args[1:]),
                                                 encoding="utf-8")
            elif kind == "rules":
                rules.write_text(RULES[args[0]], encoding="utf-8")
            elif kind == "inputs":
                options["inputs"] = [inputs[i] for i in args[0]]
            elif kind in ("damage", "delete"):
                target = (cache / MEMO_NAME if args[0] == "memo"
                          else _cache_path(str(cache), inputs[args[1]]))
                if target.exists():
                    if kind == "delete":
                        target.unlink()
                    else:
                        damage(target, args[2])
            else:
                options[kind] = args[0]

            without_memo = root / f"without-memo-{n}"
            shutil.copytree(cache, without_memo)
            (without_memo / MEMO_NAME).unlink(missing_ok=True)
            with_memo = outcome(config(cache))
            assert outcome(config(without_memo)) == with_memo, step
            assert outcome(config(root / f"cold-{n}")) == with_memo, step
