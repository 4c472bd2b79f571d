import socket
import threading
from urllib.parse import urlsplit

import pytest

from semlint.builtins import (DEFAULT_MAX_PROBES, HTTP_ERROR, MALFORMED, OK,
                              UNREACHABLE, HttpProber, InstantiationError,
                              UrlProbeResult, _iri_to_uri, make_registry,
                              probe_answers, strip_accents)
from semlint.engine import Fact, FactStore
from semlint.matcher import Bindings, SVal
from semlint.terms import Functor, Str, Var
from semlint.xml_frontend import SourcePos
from stub_prober import StubProber

B0 = Bindings()
POS = SourcePos("f.xml", 1)
OFFLINE = make_registry(StubProber(), offline=True)


def store_with(*terms):
    store = FactStore()
    for t in terms:
        store.add(Fact(t, POS))
    return store


def call(registry, name, arity, args, b=B0, store=None):
    return registry[(name, arity)](args, b, store or FactStore())


# -- sameyear -------------------------------------------------------------------

@pytest.mark.parametrize("a,b,match", [
    ("2002", "2002", True),
    (" 2002", "2002", True),     # element text keeps leading space
    ("2002", "02002", True),     # numeric comparison
    ("2001", "2002", False),
    ("MMII", "MMII", True),      # non-numeric falls back to string equality
    ("MMII", "2002", False),
])
def test_sameyear(a, b, match):
    sols = call(OFFLINE, "sameyear", 2, (Str(a), Str(b)))
    assert bool(sols) is match


def test_sameyear_requires_bound_arguments():
    with pytest.raises(InstantiationError):
        call(OFFLINE, "sameyear", 2, (Var("Y"), Str("2002")))


# -- personne1 ------------------------------------------------------------------

PEOPLE = store_with(
    Functor("personne", (Str("Anne"), Str("Martin"), Str("acacia"))),
    Functor("personne", (Str("Jean"), Str("Dupónt"), Str("acacia"))),
)


def test_personne1_exact_match():
    sols = call(OFFLINE, "personne1", 3,
                (Str("Anne"), Str("Martin"), Str("acacia")), store=PEOPLE)
    assert sols == [B0]


def test_personne1_no_match_wrong_project():
    assert call(OFFLINE, "personne1", 3,
                (Str("Anne"), Str("Martin"), Str("other")),
                store=PEOPLE) == []


def test_personne1_strict_by_default():
    assert call(OFFLINE, "personne1", 3,
                (Str("Jean"), Str("Dupont"), Str("acacia")),
                store=PEOPLE) == []


def test_personne1_accent_and_case_normalization():
    reg = make_registry(StubProber(), offline=True, normalize_names=True)
    sols = call(reg, "personne1", 3,
                (Str("jean"), Str("DUPONT"), Str("Acacia")), store=PEOPLE)
    assert len(sols) == 1


def test_strip_accents():
    assert strip_accents("Dupónt") == "dupont"
    assert strip_accents("ÉLÈVE") == "eleve"


# -- pubbyotherproject ----------------------------------------------------------

PUBS = store_with(
    Functor("pub", (Str("Shared Paper"), Str("acacia"))),
    Functor("pub", (Str("Shared Paper"), Str("orpailleur"))),
    Functor("pub", (Str("Shared Paper"), Str("miro"))),
    Functor("pub", (Str("Solo Paper"), Str("acacia"))),
)


def test_pubbyotherproject_no_solutions_for_solo_work():
    assert call(OFFLINE, "pubbyotherproject", 3,
                (Str("Solo Paper"), Str("acacia"), Var("O")),
                store=PUBS) == []


def test_pubbyotherproject_excludes_own_project():
    sols = call(OFFLINE, "pubbyotherproject", 3,
                (Str("Shared Paper"), Str("acacia"), Var("O")), store=PUBS)
    assert sorted(s["O"].value for s in sols) == ["miro", "orpailleur"]


def test_pubbyotherproject_output_must_be_unbound():
    with pytest.raises(InstantiationError):
        call(OFFLINE, "pubbyotherproject", 3,
             (Str("Shared Paper"), Str("acacia"), Str("miro")), store=PUBS)


# -- testurl --------------------------------------------------------------------

def test_testurl_live_url_yields_no_solutions():
    prober = StubProber({"http://x/": UrlProbeResult("http://x/", OK, 200)})
    reg = make_registry(prober)
    assert call(reg, "testurl", 3,
                (Str("http://x/"), Var("A1"), Var("A2"))) == []


def test_testurl_http_error_binds_answers():
    prober = StubProber({"http://x/d": UrlProbeResult(
        "http://x/d", HTTP_ERROR, 404, "Not Found")})
    reg = make_registry(prober)
    sols = call(reg, "testurl", 3, (Str("http://x/d"), Var("A1"), Var("A2")))
    assert len(sols) == 1
    assert sols[0]["A1"] == SVal("http://x/d:")
    assert sols[0]["A2"] == SVal("ERROR 404: Not Found")


def test_testurl_unreachable_binds_generic_answer():
    prober = StubProber()
    reg = make_registry(prober)
    sols = call(reg, "testurl", 3, (Str("http://gone/"), Var("A"), Var("B")))
    assert sols[0]["A"] == SVal("No answer or time out,")
    assert "down or does not exist" in sols[0]["B"].value


def test_testurl_offline_mode_never_probes():
    prober = StubProber()
    reg = make_registry(prober, offline=True)
    assert call(reg, "testurl", 3,
                (Str("http://x/"), Var("A1"), Var("A2"))) == []
    assert prober.calls == []


def test_probe_answers_malformed():
    a1, a2 = probe_answers(UrlProbeResult("notaurl", "malformed"))
    assert a1 == "Malformed URL"
    assert a2 == "notaurl"


# -- HttpProber against a real local server --------------------------------------

def test_prober_ok(stub_http_server):
    prober = HttpProber(timeout=5)
    result = prober.probe(f"{stub_http_server}/live")
    assert result.kind == OK and result.live


def test_prober_404(stub_http_server):
    prober = HttpProber(timeout=5)
    result = prober.probe(f"{stub_http_server}/dead")
    assert result.kind == HTTP_ERROR
    assert result.status == 404
    assert not result.live


def test_prober_connection_refused():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    # port was bound then released: nothing listens there now
    prober = HttpProber(timeout=5)
    result = prober.probe(f"http://127.0.0.1:{port}/")
    assert result.kind == UNREACHABLE


def test_prober_rejects_non_http():
    prober = HttpProber(timeout=5)
    for url in ["ftp://example.org/x",
                "relative/path",
                "http://127.0.0.1:1/a b",      # http.client refuses the space
                "http://127.0.0.1:abc/",       # non-numeric port
                "http://[::1/x",               # urlsplit raises ValueError
                "http://a..\u00e9/",            # IDNA: an empty label
                "http://127.0.0.1:1/a \u00e9",  # non-ASCII is encoded, not ' '
                "http://127.0.0.1:\u00e9/"]:    # a non-numeric port
        assert prober.probe(url).kind == MALFORMED, url


def test_prober_sends_an_iri_as_its_uri(stub_http_server):
    prober = HttpProber(timeout=5)
    live = f"{stub_http_server}/\u00e9t\u00e9?q=\u00fc#\u00e0"
    dead = f"{stub_http_server}/dead/\u00e9t\u00e9"
    assert prober.probe(live).kind == OK
    result = prober.probe(dead)
    assert (result.kind, result.status, result.url) == (HTTP_ERROR, 404, dead)
    assert prober.probe(dead) is result
    assert prober.probe_count == 2


@pytest.mark.parametrize("iri, uri", [
    ("http://\u00e9t\u00e9.example/\u00e9t\u00e9?q=\u00fc#f",
     "http://xn--t-9fab.example/%C3%A9t%C3%A9?q=%C3%BC#f"),
    ("http://p\u00e9@h\u00f4st.example:8080/a%20b",
     "http://p%C3%A9@xn--hst-kna.example:8080/a%20b"),
    ("http://[::1]:80/\u00e9", "http://[::1]:80/%C3%A9"),
])
def test_iri_to_uri(iri, uri):
    assert _iri_to_uri(urlsplit(iri)) == uri


def test_prober_non_http_reply_is_unreachable():
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen()
        server.settimeout(5)

        def answer():
            conn, _ = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"NOT HTTP\r\n\r\n")
        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        port = server.getsockname()[1]
        result = HttpProber(timeout=5).probe(f"http://127.0.0.1:{port}/")
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert result.kind == UNREACHABLE
    assert probe_answers(result)[0] == "No answer or time out,"


def test_prober_memoizes(stub_http_server):
    prober = HttpProber(timeout=5)
    url = f"{stub_http_server}/live"
    first = prober.probe(url)
    for _ in range(5):
        assert prober.probe(url) is first
    assert prober.probe_count == 1


def test_prober_prefetch_deduplicates(stub_http_server):
    prober = HttpProber(timeout=5, max_workers=4)
    urls = [f"{stub_http_server}/live", f"{stub_http_server}/dead"] * 3
    prober.prefetch(urls)
    assert prober.probe_count == 2
    assert prober.probe(urls[0]).kind == OK
    assert prober.probe_count == 2


@pytest.mark.parametrize("k", [3, DEFAULT_MAX_PROBES])
def test_prefetch_runs_max_workers_probes_at_once_and_no_more(
        stub_http_server, in_flight, k):
    # each batch of k requests is held until all k have arrived: a serial
    # prober never completes one, and a larger pool overshoots the peak
    gate = in_flight(k)
    urls = [f"{stub_http_server}/gate/{i}" for i in range(3 * k)]
    prober = HttpProber(5, k)
    prober.prefetch(urls)
    assert gate.peak == k
    assert prober.probe_count == 3 * k
    assert all(prober.probe(url).kind == OK for url in urls)
