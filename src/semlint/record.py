"""Record: the shared base of semlint's small value classes.

The value classes used to be ``@dataclass`` classes.  Building them and
importing ``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) cost
35-45 ms of every start-up on a 2-core VM with Python 3.11: most of what
a warm check of a cached corpus spent in semlint.  A Record subclass
lists its fields, in order, in ``__slots__``; this base gives it a
dataclass's equality and repr, a hash if it is declared ``frozen``, and,
unless it writes its own, an ``__init__`` that takes its fields in that
order.  Records are never changed after construction, frozen or not:
that is a convention, not enforced.
SourcePos, Message, fill and emit_report are here so that a run replaying
its memo renders the report without loading the parser or the engine.
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
        if "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)

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


def _make_init(cls):
    """__init__(self, <the slots in order>), compiled once per class: it
    costs a call what a written one does, where a setattr loop costs about
    three times as much."""
    fields = cls.__slots__
    body = "".join(f"\n    self.{f} = {f}" for f in fields) or "\n    pass"
    namespace = {}
    exec(f"def __init__({', '.join(('self', *fields))}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class SourcePos(Record, frozen=True):
    __slots__ = ("file", "line")


class Message(Record, frozen=True):
    __slots__ = ("pos", "rule_index", "html", "text", "solution_key",
                 "values")

    def sort_key(self):
        return (self.pos.file, self.pos.line, self.rule_index,
                self.solution_key, self.html)


# values, those of its template's slots but the position's, are left out:
# values that differ in whitespace alone fill one message
Message._key = attrgetter("__class__", *Message.__slots__[:-1])


def escape(s: str, quote: bool = True) -> str:
    """html.escape, without loading html.entities (about 2 ms a start)."""
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        s = s.replace('"', "&quot;").replace("'", "&#x27;")
    return s


def quote_string(s: str) -> str:
    s = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + s.replace("\t", "\\t").replace("\r", "\\r") + '"'


# the variables of a message's position, and the kinds of a template slot:
# element content, an attribute value (html only) and a term argument
POSITION_VARS = ("SourceFile", "SourceLine")
CONTENT, ATTR, ARG = "c", "a", "t"


def fill(form, values: list[str], html: bool) -> str:
    """One form of a template (rule_ast.compile_consequence) with values[i]
    in each slot of names[i]; a form with a content or attribute slot, a
    pattern's, is whitespace-normalized."""
    parts, spaced = [], False
    for segment in form:
        if segment.__class__ is not str:
            index, kind = segment
            value = values[index]
            if kind == ARG:
                value = quote_string(value)
            spaced = spaced or kind != ARG
            segment = escape(value, kind == ATTR) if html else value
        parts.append(segment)
    s = "".join(parts)
    # its literals are normalized already, and a printable string holds no
    # whitespace but " ": most forms need no split
    if spaced and not (s.isprintable() and "  " not in s
                       and s[:1] != " " != s[-1:]):
        s = " ".join(s.split())
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
