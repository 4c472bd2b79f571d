import http.server
import ssl
import threading
import time
from pathlib import Path
from urllib.parse import unquote

import pytest

from semlint.builtins import DEFAULT_MAX_PROBES

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


# replies of the /raw/<name> paths, written as they are
RAW_REPLIES = {
    "not-http": b"NOT HTTP\r\n\r\n",
    "http2": b"HTTP/2.0 200 OK\r\n\r\n",
    "empty": b"",
    "continue": (b"HTTP/1.1 100 Continue\r\n\r\n"
                 b"HTTP/1.1 204 No Content\r\n\r\n"),
    "early-hints": (b"HTTP/1.1 103 Early Hints\r\n"
                    b"Link: </style.css>; rel=preload\r\n\r\n"
                    b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"),
    "long-header": b"HTTP/1.1 200 OK\r\nX: " + b"a" * 70000 + b"\r\n\r\n",
    "99-headers": b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 99 + b"\r\n",
    "100-headers": b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 100 + b"\r\n",
    "folded-location": (b"HTTP/1.1 302 Found\r\nlocation:\t/live \r\n"
                        b"Location: /dead\r\n\r\n"),
    "uri": b"HTTP/1.1 302 Found\r\nURI: /dead\r\n\r\n",
}


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Replies by path:

    - /dead..., and a CONNECT to dead.<host>: 404; /slow...: 200 after 5 s;
      /gate...: held by `InFlight`;
    - /status/<code>: that status; /nohead: 405 to HEAD, 200 to GET;
    - /redirect/<code>?<location>: that status, to the unquoted location;
    - /hops/<n>: 302 to /hops/<n-1>, and 200 at 0; /loop: 301 to itself;
    - /raw/<name>: RAW_REPLIES[name];
    - anything else 200.
    """

    def _reply(self):
        self.server.requests.append((self.requestline,
                                     tuple(self.headers.items())))
        path, _, query = self.path.partition("?")
        step = path.split("/")
        location = None
        if path.startswith(("/dead", "dead.")):
            status = 404
        elif path.startswith("/slow"):
            time.sleep(5)
            status = 200
        elif path.startswith("/gate"):
            status = 200 if self.server.gate.hold() else 503
        elif path.startswith(("/status/", "/redirect/")):
            status = int(step[2])
            location = unquote(query) if step[1] == "redirect" else None
        elif path == "/nohead":
            status = 405 if self.command == "HEAD" else 200
        elif path.startswith("/hops/"):
            n = int(step[2])
            status, location = (302, f"/hops/{n - 1}") if n else (200, None)
        elif path == "/loop":
            status, location = 301, "/loop"
        elif path.startswith("/raw/"):
            self.wfile.write(RAW_REPLIES[step[2]])
            return
        else:
            status = 200
        self.send_response(status)
        if location is not None:
            self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_HEAD = do_CONNECT = _reply

    def log_message(self, *args):
        pass


class _StubServer(http.server.ThreadingHTTPServer):
    # room for every probe of a full pool at once, and as many again
    request_queue_size = 2 * DEFAULT_MAX_PROBES
    gate: InFlight | None = None

    def __init__(self, *args):
        super().__init__(*args)
        self.requests: list[tuple[str, tuple]] = []


@pytest.fixture(scope="session")
def _stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def stub_requests(_stub_server):
    """The (request line, headers) of each request the stub server has had
    since the test began."""
    _stub_server.requests.clear()
    return _stub_server.requests


@pytest.fixture(scope="session")
def tls_server():
    """The URL of a stub server behind TLS, with a self-signed certificate
    for 127.0.0.1 (fixtures/tls-cert.pem, valid until 2126)."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(FIXTURES / "tls-cert.pem",
                            FIXTURES / "tls-key.pem")
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"https://127.0.0.1:{server.server_address[1]}"
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
