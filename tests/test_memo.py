"""The run memo against the runs it stands in for.

An offline run memoises its outcome; the next run with the same key
replays it.  Through a drawn sequence of input edits, option changes, rule
edits, and damage to or deletion of cache entries, of the memo and of the
whole cache file, every step's outcome must equal that of the same run with
its memo deleted and that of a cold run in an empty cache: all but
`evaluated` and `cached`, which say how the outcome was reached.
"""

import json
import shutil
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from semlint.cli import RunConfig, execute

import cache_pack

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
    st.tuples(st.just("damage"), st.just("pack"), files,
              st.sampled_from(["truncate", "plain", "not-json", "older"])),
    st.tuples(st.just("damage"), st.sampled_from(["entry", "memo"]), files,
              st.sampled_from(["truncate", "not-json", "older"])),
    st.tuples(st.just("delete"), st.sampled_from(["entry", "memo", "pack"]),
              files),
)


def document(declared: str, checked: str) -> str:
    return (f'<team>\n<pers prenom="x" nom="{declared}"><r/></pers>\n'
            f'<check prenom="x" nom="{checked}"/>\n</team>\n')


def damage(cache: Path, target: str, input_path: str, how: str) -> None:
    """Damage the whole cache file, the memo's outcome line, or the entry of
    input_path if the file holds one."""
    path = cache_pack.pack_file(cache)
    data = path.read_bytes()
    if target == "pack" and how in ("truncate", "plain"):
        path.write_bytes(data[:len(data) // 2] if how == "truncate"
                         else zlib.decompress(data))
    elif target == "pack" and how == "not-json":
        path.write_bytes(zlib.compress(b"[1, 2"))
    elif how == "older" and target != "entry":
        # a consistent file written by other code
        key = json.loads(cache_pack.read_lines(cache)[cache_pack.KEY])
        key[0] = "0" * 64
        cache_pack.set_line(cache, cache_pack.KEY, json.dumps(key))
    elif target == "memo":
        line = cache_pack.read_lines(cache)[cache_pack.OUTCOME]
        cache_pack.set_line(cache, cache_pack.OUTCOME,
                            line[:len(line) // 2] if how == "truncate"
                            else "[1, 2")
    elif input_path in cache_pack.entry_paths(cache):
        # a replay rewrites nothing, so the entry may be damaged already
        text = cache_pack.entry(cache, input_path)
        if how == "older":
            # an entry is kept with the digest of the input it was computed
            # from: one of another version of the input
            cache_pack.set_digest(cache, input_path, "0" * 64)
        else:
            cache_pack.set_entry(cache, input_path,
                                 text[:len(text) // 2] if how == "truncate"
                                 else "[1, 2")


def delete(cache: Path, target: str, input_path: str) -> None:
    if target == "pack":
        cache_pack.pack_file(cache).unlink()
    elif target == "memo":
        cache_pack.set_line(cache, cache_pack.OUTCOME, "null")
    elif input_path in cache_pack.entry_paths(cache):
        cache_pack.drop_entry(cache, input_path)


def drop_memo(cache: Path) -> None:
    try:
        cache_pack.set_line(cache, cache_pack.OUTCOME, "null")
    except (OSError, IndexError, zlib.error):
        pass  # a cache file that is absent or damaged holds no memo


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
                # the file is valid here: each step's run rewrites it, or
                # finds it valid and replays
                if cache_pack.pack_file(cache).exists():
                    target, file, *how = args
                    (damage if kind == "damage" else delete)(
                        cache, target, inputs[file], *how)
            else:
                options[kind] = args[0]

            without_memo = root / f"without-memo-{n}"
            shutil.copytree(cache, without_memo)
            drop_memo(without_memo)
            with_memo = outcome(config(cache))
            assert outcome(config(without_memo)) == with_memo, step
            assert outcome(config(root / f"cold-{n}")) == with_memo, step
