import http.server
import threading
import time
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

CRITERIA = {
    1: "rule file parses to the expected 11 rules",
    2: "citation pattern binds year, title and tail as documented",
    3: "seeded two-team corpus yields exactly the 4 planted defects",
    4: "environment assignments stay local to their subtree",
    5: "deep containment search equals the brute-force oracle",
    6: "cold, warm and partly cached runs emit byte-identical reports",
    7: "touching 1 of 10 inputs re-evaluates exactly that file",
    8: "matching/unification invariants hold on random inputs",
}


def pytest_terminal_summary(terminalreporter):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                n = int(nodeid.split("test_criterion_")[1].split("_")[0])
                results[n] = "PASS" if outcome == "passed" else "FAIL"
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(CRITERIA):
        status = results.get(n, "NOT RUN")
        terminalreporter.write_line(
            f"{status:7s} criterion {n}: {CRITERIA[n]}")


@pytest.fixture(scope="session")
def raweb_rules_path() -> Path:
    return FIXTURES / "raweb.rules"


@pytest.fixture(scope="session")
def raweb_rules_text(raweb_rules_path) -> str:
    return raweb_rules_path.read_text(encoding="utf-8")


class InFlight:
    """Holds each /gate request at a barrier of `k` parties.

    No /gate request is answered until `k` are in flight together, and
    `peak` records the most that ever were.
    """

    def __init__(self, k: int):
        self.barrier = threading.Barrier(k, timeout=5)
        self.peak = 0
        self._now = 0
        self._lock = threading.Lock()

    def hold(self) -> bool:
        """Wait at the barrier; False when it broke (timed out)."""
        with self._lock:
            self._now += 1
            self.peak = max(self.peak, self._now)
        try:
            self.barrier.wait()
            return True
        except threading.BrokenBarrierError:
            return False
        finally:
            # leave the count before the reply is sent, so the client's next
            # request can never be counted alongside this one
            with self._lock:
                self._now -= 1


class _StubHandler(http.server.BaseHTTPRequestHandler):
    def _reply(self):
        if self.path.startswith("/dead"):
            self.send_response(404)
        elif self.path.startswith("/slow"):
            time.sleep(5)
            self.send_response(200)
        elif self.path.startswith("/gate"):
            self.send_response(200 if self.server.gate.hold() else 503)
        else:
            self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = _reply
    do_HEAD = _reply

    def log_message(self, *args):
        pass


class _StubServer(http.server.ThreadingHTTPServer):
    request_queue_size = 64  # room for every probe of a full pool at once
    gate: InFlight | None = None


@pytest.fixture(scope="session")
def _stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="session")
def stub_http_server(_stub_server):
    return f"http://127.0.0.1:{_stub_server.server_address[1]}"


@pytest.fixture
def in_flight(_stub_server):
    """Call with `k` to gate the stub server's /gate path on `k` requests."""
    def install(k: int) -> InFlight:
        _stub_server.gate = InFlight(k)
        return _stub_server.gate
    yield install
    _stub_server.gate = None


SUPPLEMENT_RULES = """\
<bpub title=$T> <$_> </bpub>
& project = $Proj
\t=> pub($T,$Proj);
"""


def _filler(team: str) -> str:
    # pad the report with realistic, rule-neutral structure
    sections = []
    for i in range(1, 7):
        sections.append(f"""\
  <section id="{team}-s{i}">
    <title>Research axis {i}</title>
    <par>
      Work on topic {i} of team {team} continued through the year,
      with seminars, software releases and collaborations.
    </par>
    <par>
      Further details are given in the corresponding module report.
    </par>
  </section>""")
    return "\n".join(sections)


def acacia_xml(base_url: str, fixed: bool = False) -> str:
    byear = "2002" if fixed else "2001"
    shared = "Unique Discovery Paper" if fixed else "Shared Discovery Paper"
    dead = f"{base_url}/live" if fixed else f"{base_url}/dead"
    zoe_decl = ("""<pers prenom="Zoe" nom="Unknown"><role>PhD</role></pers>"""
                if fixed else "")
    return f"""\
<raweb year="2002">
  <accueil>
    <logo src="acacia.png"/>
    <head>Team acacia</head>
    <projet>acacia<theme>knowledge</theme></projet>
    <moreinfo>Created 1995</moreinfo>
  </accueil>
  <catperso>
    <pers prenom="Anne" nom="Martin"><role>Researcher</role></pers>
    <pers prenom="Paul" nom="Durand"><role>Engineer</role></pers>
    {zoe_decl}
  </catperso>
{_filler("acacia")}
  <composition>
    <pers prenom="Anne" nom="Martin"><role>Head</role></pers>
    <pers prenom="Zoe" nom="Unknown"><role>Visitor</role></pers>
  </composition>
  <biblio>
    <citation from="year">
      <btitle>Older Result Paper<note/></btitle>
      <byear>{byear}<note/></byear>
    </citation>
    <citation from="year">
      <btitle>{shared}<note/></btitle>
      <byear>2002<note/></byear>
    </citation>
    <xref url="{dead}">citeseer mirror</xref>
    <xref url="{base_url}/live">project home</xref>
  </biblio>
</raweb>
"""


def orpailleur_xml(base_url: str, fixed: bool = False) -> str:
    return f"""\
<raweb year="2002">
  <accueil>
    <logo src="orpailleur.png"/>
    <head>Team orpailleur</head>
    <projet>orpailleur<theme>mining</theme></projet>
    <moreinfo>Created 1998</moreinfo>
  </accueil>
  <catperso>
    <pers prenom="Jean" nom="Petit"><role>Researcher</role></pers>
    <pers prenom="Lea" nom="Moreau"><role>Researcher</role></pers>
  </catperso>
{_filler("orpailleur")}
  <composition>
    <pers prenom="Jean" nom="Petit"><role>Head</role></pers>
  </composition>
  <biblio>
    <bpub title="Shared Discovery Paper">joint work with acacia</bpub>
    <citation from="year">
      <btitle>Mining Methods Survey<note/></btitle>
      <byear>2002<note/></byear>
    </citation>
    <xref url="{base_url}/live">project home</xref>
  </biblio>
</raweb>
"""


@pytest.fixture
def seeded_corpus(tmp_path, stub_http_server, raweb_rules_path):
    """Two-team mini report with exactly four seeded defects."""
    return make_corpus(tmp_path, stub_http_server, raweb_rules_path,
                       fixed=False)


@pytest.fixture
def fixed_corpus(tmp_path, stub_http_server, raweb_rules_path):
    return make_corpus(tmp_path / "fixed", stub_http_server,
                       raweb_rules_path, fixed=True)


def make_corpus(root: Path, base_url: str, raweb_rules_path: Path,
                fixed: bool):
    root.mkdir(parents=True, exist_ok=True)
    supplement = root / "publist.rules"
    supplement.write_text(SUPPLEMENT_RULES, encoding="utf-8")
    acacia = root / "acacia.xml"
    acacia.write_text(acacia_xml(base_url, fixed), encoding="utf-8")
    orpailleur = root / "orpailleur.xml"
    orpailleur.write_text(orpailleur_xml(base_url, fixed), encoding="utf-8")
    return {
        "root": root,
        "rules": [str(raweb_rules_path), str(supplement)],
        "inputs": [str(acacia), str(orpailleur)],
        "cache": str(root / "cache"),
        "base_url": base_url,
    }
