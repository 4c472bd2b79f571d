import socket
import sys
import threading
from collections import Counter
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from semlint import BUILTIN_MODES
from semlint.builtins import (DEFAULT_MAX_PROBES, HTTP_ERROR, MALFORMED, OK,
                              UNREACHABLE, HttpProber, UrlProbeResult,
                              _iri_to_uri, make_registry, probe_answers,
                              strip_accents, urls_to_probe)
from semlint.dsl_parser import ParseError, parse_rules
from semlint.engine import DelayedTest, FactStore
from semlint.rule_ast import Polarity, TestRule, compile_consequence
from semlint.terms import Functor, Var
from semlint.xml_frontend import SourcePos, parse_xml
from stub_prober import StubProber

B0 = {}
OFFLINE = make_registry(StubProber(), offline=True)


def store_with(*terms):
    store = FactStore()
    for t in terms:
        store.add(t)
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
    # only digits compare as numbers, not the rest of int()'s syntax
    ("2_002", "2002", False),
    ("+2002", "2002", False),
    ("2002", "+2002", False),
    ("+2002", "+2002", True),
    ("2002", "2002.0", False),
    ("", "2002", False),
    ("", "", True),
    pytest.param("\u0662\u0660\u0660\u0662", "2002", True,
                 id="arabic-indic-digits"),
    # past int()'s digit limit, the strings are compared
    pytest.param("9" * 5000, "9" * 5000, True, id="5000-digits-equal"),
    pytest.param("9" * 5000, "8" * 5000, False, id="5000-digits-differ"),
])
def test_sameyear(a, b, match):
    sols = call(OFFLINE, "sameyear", 2, (a, b))
    assert bool(sols) is match


# -- personne1 ------------------------------------------------------------------

PEOPLE = store_with(
    Functor("personne", ("Anne", "Martin", "acacia")),
    Functor("personne", ("Jean", "Dupónt", "acacia")),
)


def test_personne1_exact_match():
    sols = call(OFFLINE, "personne1", 3,
                ("Anne", "Martin", "acacia"), store=PEOPLE)
    assert sols == [B0]


def test_personne1_no_match_wrong_project():
    assert call(OFFLINE, "personne1", 3,
                ("Anne", "Martin", "other"),
                store=PEOPLE) == []


def test_personne1_strict_by_default():
    assert call(OFFLINE, "personne1", 3,
                ("Jean", "Dupont", "acacia"),
                store=PEOPLE) == []


def test_personne1_accent_and_case_normalization():
    reg = make_registry(StubProber(), offline=True, normalize_names=True)
    sols = call(reg, "personne1", 3,
                ("jean", "DUPONT", "Acacia"), store=PEOPLE)
    assert len(sols) == 1


def test_strip_accents():
    assert strip_accents("Dupónt") == "dupont"
    assert strip_accents("ÉLÈVE") == "eleve"


# -- pubbyotherproject ----------------------------------------------------------

PUBS = store_with(
    Functor("pub", ("Shared Paper", "acacia")),
    Functor("pub", ("Shared Paper", "orpailleur")),
    Functor("pub", ("Shared Paper", "miro")),
    Functor("pub", ("Solo Paper", "acacia")),
)


def test_pubbyotherproject_no_solutions_for_solo_work():
    assert call(OFFLINE, "pubbyotherproject", 3,
                ("Solo Paper", "acacia", Var("O")),
                store=PUBS) == []


def test_pubbyotherproject_excludes_own_project():
    sols = call(OFFLINE, "pubbyotherproject", 3,
                ("Shared Paper", "acacia", Var("O")), store=PUBS)
    assert sorted(s["O"] for s in sols) == ["miro", "orpailleur"]


# -- testurl --------------------------------------------------------------------

def test_testurl_live_url_yields_no_solutions():
    prober = StubProber({"http://x/": UrlProbeResult("http://x/", OK, 200)})
    reg = make_registry(prober)
    assert call(reg, "testurl", 3,
                ("http://x/", Var("A1"), Var("A2"))) == []


def test_testurl_http_error_binds_answers():
    prober = StubProber({"http://x/d": UrlProbeResult(
        "http://x/d", HTTP_ERROR, 404, "Not Found")})
    reg = make_registry(prober)
    sols = call(reg, "testurl", 3, ("http://x/d", Var("A1"), Var("A2")))
    assert len(sols) == 1
    assert sols[0]["A1"] == "http://x/d:"
    assert sols[0]["A2"] == "ERROR 404: Not Found"


def test_testurl_unreachable_binds_generic_answer():
    prober = StubProber()
    reg = make_registry(prober)
    sols = call(reg, "testurl", 3, ("http://gone/", Var("A"), Var("B")))
    assert sols[0]["A"] == "No answer or time out,"
    assert "down or does not exist" in sols[0]["B"]


def test_testurl_answers_for_one_variable_must_agree():
    reg = make_registry(StubProber())
    # the two answers differ, so one variable cannot hold both
    assert call(reg, "testurl", 3,
                ("http://gone/", Var("A"), Var("A"))) == []


def test_testurl_offline_mode_never_probes():
    prober = StubProber()
    reg = make_registry(prober, offline=True)
    assert call(reg, "testurl", 3,
                ("http://x/", Var("A1"), Var("A2"))) == []
    assert prober.calls == []


def test_urls_to_probe_projects_bound_url_arguments():
    def delayed(goal, captured):
        test = TestRule(Polarity.IF_PRESENT, goal, "m",
                        compile_consequence("m"), ())
        return DelayedTest(0, test, captured, SourcePos("f.xml", 1))
    node = parse_xml(b"<u> http://x/n </u>", "f.xml")
    tests = [
        delayed(Functor("testurl", ("http://x/s", Var("A"), Var("B"))), {}),
        delayed(Functor("testurl", (Var("U"), Var("A"), Var("B"))),
                {"U": node}),
        delayed(Functor("testurl", (Functor("f", ("x",)), Var("A"),
                                    Var("B"))), {}),
        # another predicate, another arity: nothing to probe; a URL that is
        # unbound or a compound holding a variable fails to load
        delayed(Functor("sameyear", ("http://x/no", "1")), {}),
        delayed(Functor("testurl", ("http://x/no",)), {}),
    ]
    assert urls_to_probe(tests) == ["http://x/s", "http://x/n", 'f("x")']
    # a functor's text is malformed without a request, as testurl finds it
    prober = HttpProber()
    assert prober.probe('f("x")').kind == MALFORMED
    assert prober.probe_count == 0


# -- modes ----------------------------------------------------------------------

def test_the_registry_provides_exactly_the_builtins_with_modes():
    assert make_registry(StubProber()).keys() == BUILTIN_MODES.keys()


# each rule breaks its builtin's modes (+ ground when the goal runs, - a
# variable that only the goal binds): this fails to load, where it once
# raised when the goal ran
@pytest.mark.parametrize("goal, arg, mode", [
    pytest.param('sameyear($Y, "2002")', "$Y", "+", id="unbound-input"),
    pytest.param('sameyear($_, $X)', "$_", "+", id="anon-input"),
    # a variable in a written compound is never substituted: its text would
    # be compared, looked up or probed as if it were a value, and a solution
    # would leave it unbound for the message
    pytest.param('sameyear(f($Z), f($Z))', "f($Z)", "+", id="sameyear-hole"),
    pytest.param('personne1(f($Z), "Martin", "acacia")', "f($Z)", "+",
                 id="personne1-hole"),
    pytest.param('pubbyotherproject(f("t", $Z), "acacia", $A)', 'f("t",$Z)',
                 "+", id="pubbyotherproject-hole"),
    pytest.param('testurl(f($Z), $A, $B)', "f($Z)", "+", id="testurl-hole"),
    # nor is a bound one
    pytest.param('testurl(f($X), $A, $B)', "f($X)", "+", id="bound-hole"),
    pytest.param('pubbyotherproject("Shared Paper", "acacia", $X)', "$X", "-",
                 id="pubbyotherproject-bound-output"),
    pytest.param('testurl("http://gone/", $X, $B)', "$X", "-",
                 id="testurl-bound-output"),
    pytest.param('testurl($X, $A, $X)', "$X", "-", id="output-is-an-input"),
    pytest.param('pubbyotherproject("Shared Paper", "acacia", "miro")',
                 '"miro"', "-", id="string-output"),
    pytest.param('testurl("http://x/", $A, f($B))', "f($B)", "-",
                 id="compound-output"),
])
@pytest.mark.parametrize("skipped", ["", "<* "], ids=["live", "skipped"])
def test_a_goal_that_breaks_a_mode_fails_to_load(goal, arg, mode, skipped):
    text = ('<b/> => pub("Shared Paper", "acacia");\n'
            f'{skipped}<a x=$X/> ? {goal} -> <li> k </li>;\n')
    with pytest.raises(ParseError) as exc:
        parse_rules(text, "r.rules")
    need = ("ground or a variable bound by the rule's pattern or conditions"
            if mode == "+" else "a variable that only the goal binds")
    name = goal.partition("(")[0]
    assert str(exc.value) == f"r.rules:2: {name}: argument {arg} must be {need}"


@pytest.mark.parametrize("rule", [
    # both outputs may be one variable, which then needs two equal answers
    '<a href=$U/> ? testurl($U, $A, $A) -> <li> <$A> </li>;',
    '<a href=$U/> ? testurl($U, $_, $_) / <li> <$U> </li>;',
    # inputs bound by a condition or by the position, ground compounds
    '<a> <$T> </a> & e = f($P) ? pubbyotherproject($T, $P, $O) -> <li> <$O>'
    ' </li>;',
    '<a> <$T> </a> & e = $_ ? sameyear($_, $SourceLine) / <li> <$T> </li>;',
    '<a/> ? personne1(f("x"), $SourceFile, "p") / <li> k </li>;',
    '<a> <$X> </a> & $X contains <b y=$Y/> ? sameyear($Y, "1") / <li/>;',
])
def test_a_goal_in_its_modes_loads(rule):
    parse_rules(rule, "r.rules")


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(
    p.relative_to(ROOT).as_posix() for d in ("tests/fixtures", "perfbench")
    for p in (ROOT / d).glob("*.rules")))
def test_every_rule_file_of_the_project_loads(name):
    assert parse_rules((ROOT / name).read_text(encoding="utf-8"), name).rules


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
                "http://127.0.0.1:1/a b",      # a space cannot be sent
                "http://127.0.0.1:abc/",       # non-numeric port
                "http://[::1/x",               # urlsplit raises ValueError
                "http://a..\u00e9/",            # IDNA: an empty label
                "http://127.0.0.1:1/a \u00e9",  # non-ASCII is encoded, not ' '
                "http://127.0.0.1:\u00e9/",     # a non-numeric port
                "http://127.0.0.1:99999/",      # out of range: not wrapped
                "http://127.0.0.1:-1/",
                "http://:80/",                  # no host
                "http://user@/x"]:
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


def test_prefetch_reraises_the_first_failure_after_probing_the_rest(
        stub_http_server):
    class Failing(HttpProber):
        def _probe_uncached(self, url):
            if url.endswith("/boom"):
                raise RuntimeError(url)
            return super()._probe_uncached(url)

    prober = Failing(timeout=5, max_workers=2)
    urls = [f"{stub_http_server}/live/{i}" for i in range(5)]
    with pytest.raises(RuntimeError, match="/boom"):
        prober.prefetch(urls[:2] + [f"{stub_http_server}/boom"] + urls[2:])
    assert prober.probe_count == 5


def test_prefetch_hands_each_url_to_exactly_one_worker():
    # the workers share one iterator: a URL lost or handed out twice
    # breaks the count
    seen, lock = Counter(), threading.Lock()

    class Counting(HttpProber):
        def _probe_uncached(self, url):
            with lock:
                seen[url] += 1
            return UrlProbeResult(url, OK, 200)

    urls = [f"http://h/{i}" for i in range(3000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        Counting(timeout=5, max_workers=16).prefetch(urls + urls[:500])
    finally:
        sys.setswitchinterval(interval)
    assert seen == Counter(urls)
