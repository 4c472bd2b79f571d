"""Message rendering; the report is assembled by emit_report in record.

Each test rule's consequence is compiled once, when the rule is loaded,
into a template of merged, pre-escaped literals and variable slots.
Rendering fills the slots with the string projections of the variables'
bindings, entity-escaped in the HTML form only, and normalizes whitespace
so that pretty-printed templates produce stable one-line messages.  A
replay fills the same templates, stored in the cache, from the values
memoised with each message, through the same record.fill.
"""

from __future__ import annotations

from . import FORMATS
from .matcher import Bindings, string_projection
from .record import POSITION_VARS, Message, emit_report, fill

# re-exported: a replay renders its report through record alone
__all__ = ["FORMATS", "Message", "emit_report", "render_consequence"]


def render_consequence(template: tuple, b: Bindings) -> tuple[str, str, list]:
    """(html, text) of a test's template (rule_ast.compile_consequence)
    filled with the string projections of its names' bindings, and the
    values of the names but the position's.  b binds every name: validate
    and the builtin modes rule an unbound one out when the rule loads."""
    names, html, text = template
    values = [string_projection(b[name]) for name in names]
    return fill(html, values, True), fill(text, values, False), [
        v for name, v in zip(names, values) if name not in POSITION_VARS]
