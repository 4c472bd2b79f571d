"""semlint: semantic consistency checking of XML document collections.

Documents are matched against rules written in a small pattern/term DSL;
pass 1 walks each file collecting facts and delayed tests, pass 2 merges
the facts and resolves the tests into file/line-anchored warnings.
Importing the package loads none of its modules.
"""

# the report formats emit_report writes; the CLI offers exactly these
FORMATS = ("html", "text", "machine")

# Defaults shared by RunConfig, the CLI and HttpProber.  A probe mostly
# waits on the network: on urls-live (200 URLs, replies after 20 ms),
# prefetch took 0.18-0.20 s at 32 in flight and 0.11-0.13 s at 64, for
# about 0.4 MB more peak memory.  The benchmark's stub accepts 64 at once.
DEFAULT_URL_TIMEOUT = 10.0
DEFAULT_MAX_PROBES = 64
# a day is far beyond any useful wait and far below the largest timeout a
# socket takes (about 9.2e9 s)
MAX_URL_TIMEOUT = 86400.0

# each builtin's argument modes, as a Prolog mode declaration gives them: a
# "+" argument is ground when the goal runs, a "-" one is a variable that
# only the goal binds.  The parser rejects a goal that breaks them
BUILTIN_MODES = {("sameyear", 2): "++", ("personne1", 3): "+++",
                 ("pubbyotherproject", 3): "++-", ("testurl", 3): "+--"}


class SemlintError(Exception):
    """The base of every error that a run reports with exit code 2."""


class LineError(SemlintError):
    """An error at pos, a record.SourcePos: "file:line: detail"."""

    def __init__(self, pos, detail: str):
        super().__init__(f"{pos.file}:{pos.line}: {detail}")
        self.pos = pos
        self.detail = detail


__version__ = "0.1.0"
