"""Record: the shared base of semlint's small value classes.

The value classes used to be ``@dataclass`` classes.  Building them and
importing ``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) cost
35-45 ms of every start-up on a 2-core VM with Python 3.11: most of what
a warm check of a cached corpus spent in semlint.  A Record subclass
lists its fields, in order, in ``__slots__`` and stores them in its own
``__init__``; this base gives it a dataclass's equality and repr, and a
hash if it is declared ``frozen``.  Records are never changed after
construction, frozen or not: that is a convention, not enforced.
SourcePos, Message and emit_report are here so that a run replaying its
memo renders the report without loading the parser or the engine.
"""

from __future__ import annotations

from operator import attrgetter

from . import FORMATS


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False):
        super().__init_subclass__()
        # the class leads the key so that it is a tuple even for one field
        # or none; records of one class compare as tuples of their fields
        cls._key = attrgetter("__class__", *cls.__slots__)
        if frozen:
            cls.__hash__ = Record._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def _hash(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SourcePos(Record, frozen=True):
    __slots__ = ("file", "line")

    def __init__(self, file: str, line: int):
        self.file = file
        self.line = line


class Message(Record, frozen=True):
    __slots__ = ("pos", "rule_index", "html", "text", "solution_key")

    def __init__(self, pos: SourcePos, rule_index: int, html: str, text: str,
                 solution_key: str):
        self.pos = pos
        self.rule_index = rule_index
        self.html = html
        self.text = text
        self.solution_key = solution_key

    def sort_key(self):
        return (self.pos.file, self.pos.line, self.rule_index,
                self.solution_key, self.html)


def escape(s: str, quote: bool = True) -> str:
    """html.escape, without loading html.entities (about 2 ms a start)."""
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        s = s.replace('"', "&quot;").replace("'", "&#x27;")
    return s


def emit_report(msgs: list[Message], diagnostics: list[str],
                format: str) -> str:
    """Assemble the final report; deterministic for identical inputs."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    ordered = sorted(set(msgs), key=Message.sort_key)
    diags = sorted(set(diagnostics))
    lines: list[str] = []
    if format == "html":
        for d in diags:
            lines.append(f'<p class="diagnostic">{escape(d, quote=False)}</p>')
        lines.append("<ul>")
        for m in ordered:
            # a message whose root element is li is already a list item;
            # <list> or <link/> merely starts with the same letters
            is_item = m.html.startswith(("<li>", "<li ", "<li/"))
            lines.append(m.html if is_item else f"<li>{m.html}</li>")
        lines.append("</ul>")
        lines.append(f"<p>{len(ordered)} messages</p>")
    elif format == "text":
        for d in diags:
            lines.append(f"diagnostic: {d}")
        for m in ordered:
            lines.append(f"{m.pos.file}:{m.pos.line}: {m.text}")
        lines.append(f"{len(ordered)} messages")
    else:
        # json.dumps(..., sort_keys=True)'s lines, 0.35 ms for 160 messages
        # against 0.88; imported here, as rule loading needs no json
        from json.encoder import encode_basestring_ascii as quote
        for d in diags:
            lines.append(f'{{"diagnostic": {quote(d)}}}')
        for m in ordered:
            lines.append(f'{{"file": {quote(m.pos.file)}, '
                         f'"html": {quote(m.html)}, "line": {m.pos.line}, '
                         f'"rule": {m.rule_index}, "text": {quote(m.text)}}}')
        lines.append(f'{{"messages": {len(ordered)}}}')
    return "\n".join(lines) + "\n"
