"""Read and edit the one cache file of a cache dir, line by line.

The file is zlib-compressed.  Its lines are the key, the outcome (null
after an online run), the JSON list of entry paths, and one pass-1 entry
per path in that order.
"""

import json
import zlib
from pathlib import Path

from semlint.cli import PACK_NAME

KEY, OUTCOME, PATHS = 0, 1, 2


def pack_file(cache_dir) -> Path:
    return Path(cache_dir) / PACK_NAME


def read_lines(cache_dir) -> list[str]:
    data = zlib.decompress(pack_file(cache_dir).read_bytes())
    return data.decode("utf-8").split("\n")


def write_lines(cache_dir, lines: list[str]) -> None:
    pack_file(cache_dir).write_bytes(
        zlib.compress("\n".join(lines).encode("utf-8")))


def entry_paths(cache_dir) -> list[str]:
    return json.loads(read_lines(cache_dir)[PATHS])


def entry(cache_dir, path: str) -> str:
    lines = read_lines(cache_dir)
    return lines[PATHS + 1 + json.loads(lines[PATHS]).index(path)]


def set_line(cache_dir, index: int, text: str) -> None:
    assert "\n" not in text
    lines = read_lines(cache_dir)
    lines[index] = text
    write_lines(cache_dir, lines)


def set_entry(cache_dir, path: str, text: str) -> None:
    set_line(cache_dir, PATHS + 1 + entry_paths(cache_dir).index(path), text)


def drop_entry(cache_dir, path: str) -> None:
    """Remove the entry of `path` and its place in the list of paths."""
    lines = read_lines(cache_dir)
    paths = json.loads(lines[PATHS])
    del lines[PATHS + 1 + paths.index(path)]
    paths.remove(path)
    lines[PATHS] = json.dumps(paths)
    write_lines(cache_dir, lines)
