"""HttpProber's socket client against the urllib request path it replaced
(legacy_prober.py): equal results and equal requests at the stub servers
for every reply they give, for redirects, proxies, TLS and failures to
connect, and the cases where the two differ on purpose."""

import socket
import threading

import pytest

from conftest import FIXTURES
from legacy_prober import LegacyProber
from semlint.builtins import (HTTP_ERROR, MALFORMED, OK, TIMEOUT, UNREACHABLE,
                              HttpProber)

PATHS = [
    "/live", "/dead/x", "/nohead", "/live?q=1#frag",
    *(f"/status/{code}" for code in
      (200, 204, 301, 404, 405, 500, 501, 300, 304)),
    # redirects: relative, with spaces and non-ASCII, absolute,
    # scheme-relative, with no path, to a scheme urllib refuses, empty
    "/redirect/301?/live", "/redirect/302?../dead", "/redirect/303?/nohead",
    "/redirect/307?/status/405", "/redirect/308?/live/a%20b",
    "/redirect/302?/live/%C3%A9", "/redirect/302?{base}/live",
    "/redirect/302?//{authority}/dead", "/redirect/302?{base}",
    "/redirect/302?file:///etc/passwd", "/redirect/302?mailto:a@b.c",
    "/redirect/302?", "/hops/10", "/hops/11", "/loop",
    *(f"/raw/{name}" for name in
      ("not-http", "http2", "empty", "continue", "long-header", "99-headers",
       "100-headers", "folded-location", "uri")),
]

MALFORMED_URLS = [
    "ftp://example.org/x", "relative/path", "http://[::1/x",
    "http://a..é/", "http://127.0.0.1:é/",
    "http://127.0.0.1:1/a b", "http://127.0.0.1:1/a é",
    "http://127.0.0.1:abc/", "http://127.0.0.1:1/a\tb",
    "http://127.0.0.1%0A:1/",
]


def probe_both(url, requests=None, timeout=5.0):
    """Each prober's result for url, and the requests each one made."""
    results, made = [], []
    for prober in (LegacyProber(timeout), HttpProber(timeout)):
        if requests is not None:
            requests.clear()
        results.append(prober.probe(url))
        made.append(list(requests or ()))
    return results, made


def refused_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.mark.parametrize("path", PATHS)
def test_client_matches_urllib(stub_http_server, stub_requests, path):
    base = stub_http_server
    url = base + path.format(base=base, authority=base[len("http://"):])
    (old, new), (old_requests, new_requests) = probe_both(url, stub_requests)
    assert new == old
    assert new_requests == old_requests and new_requests


def test_statuses_and_redirects_probe_as_planted(stub_http_server):
    prober = HttpProber(5)

    def probe(path):
        result = prober.probe(stub_http_server + path)
        return result.kind, result.status

    assert probe("/nohead") == (OK, 200)
    assert probe("/status/204") == (OK, 204)
    assert probe("/status/501") == (HTTP_ERROR, 501)
    assert probe("/redirect/308?/live/a%20b") == (OK, 200)
    assert probe("/hops/10") == (OK, 200)
    assert probe("/raw/continue") == (OK, 204)
    assert probe("/raw/folded-location") == (OK, 200)
    assert probe("/raw/uri") == (HTTP_ERROR, 404)
    for path in ("/hops/11", "/loop", "/redirect/302?"):
        kind, status = probe(path)
        assert (kind, status) == (HTTP_ERROR, 301 if path == "/loop" else 302)
        assert "infinite loop" in prober.probe(stub_http_server + path).detail
    for path in ("/raw/not-http", "/raw/http2", "/raw/empty",
                 "/raw/long-header", "/raw/100-headers"):
        assert probe(path) == (UNREACHABLE, None), path


@pytest.mark.parametrize("url", MALFORMED_URLS)
def test_malformed_urls_match_urllib(url):
    (old, new), _ = probe_both(url)
    assert new == old
    assert new.kind == MALFORMED


def test_a_line_break_after_the_port_is_malformed():
    # the socket layer takes "80\n" for port 80; urllib refused the Host
    # header, the client refuses the authority
    (old, new), _ = probe_both("http://127.0.0.1:80%0A/")
    assert new.kind == old.kind == MALFORMED


def test_refused_port_matches_urllib():
    (old, new), _ = probe_both(f"http://127.0.0.1:{refused_port()}/")
    assert new == old and new.kind == UNREACHABLE


def test_timeout_matches_urllib(stub_http_server, stub_requests):
    (old, new), (old_requests, new_requests) = probe_both(
        f"{stub_http_server}/slow", stub_requests, timeout=0.3)
    assert new == old and new.kind == TIMEOUT
    assert new_requests == old_requests


def test_a_reply_that_never_comes_times_out_as_in_urllib():
    # a listener that never accepts: the connect completes in the kernel's
    # queue, and the read waits out the timeout
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen()
        url = f"http://127.0.0.1:{server.getsockname()[1]}/"
        (old, new), _ = probe_both(url, timeout=0.3)
    assert new == old and new.kind == TIMEOUT


def test_non_http_reply_on_a_raw_socket_matches_urllib():
    with socket.socket() as server:
        server.bind(("127.0.0.1", 0))
        server.listen()
        server.settimeout(5)

        def answer():
            for _ in range(2):
                conn, _ = server.accept()
                with conn:
                    conn.recv(65536)
                    conn.sendall(b"ICY 200 OK\r\n\r\n")
        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        (old, new), _ = probe_both(
            f"http://127.0.0.1:{server.getsockname()[1]}/")
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert new == old and new.kind == UNREACHABLE


# -- TLS ---------------------------------------------------------------------

@pytest.mark.parametrize("redirected", [False, True])
def test_certificates_are_verified_as_by_urllib(
        tls_server, stub_http_server, monkeypatch, redirected):
    url = (f"{stub_http_server}/redirect/302?{tls_server}/live" if redirected
           else f"{tls_server}/live")
    (old, new), _ = probe_both(url)
    assert new == old and new.kind == UNREACHABLE
    assert "CERTIFICATE_VERIFY_FAILED" in new.detail
    monkeypatch.setenv("SSL_CERT_FILE", str(FIXTURES / "tls-cert.pem"))
    (old, new), _ = probe_both(url)
    assert new == old and (new.kind, new.status) == (OK, 200)


def test_one_tls_context_serves_every_https_probe(tls_server, monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(FIXTURES / "tls-cert.pem"))
    prober = HttpProber(5)
    prober.prefetch([f"{tls_server}/live/{i}" for i in range(4)])
    context = prober._tls
    assert all(prober.probe(f"{tls_server}/live/{i}").live for i in range(4))
    assert prober.probe(f"{tls_server}/dead").status == 404
    assert prober._tls is context


# -- proxies -----------------------------------------------------------------

@pytest.fixture
def proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch.setenv


@pytest.mark.parametrize("userinfo", ["", "u%20ser:pa%3Ass@"])
def test_http_proxy_gets_the_absolute_form(
        stub_http_server, stub_requests, proxy_env, userinfo):
    proxy_env("http_proxy", stub_http_server.replace("//", "//" + userinfo))
    # nothing listens on the target's port: only the proxy can answer
    url = f"http://127.0.0.1:{refused_port()}/live?q=1"
    (old, new), (old_requests, new_requests) = probe_both(url, stub_requests)
    assert new == old and new.kind == OK
    assert new_requests == old_requests
    assert new_requests[0][0] == f"HEAD {url} HTTP/1.1"
    authorization = dict(new_requests[0][1]).get("Proxy-Authorization")
    assert (authorization is None) == (not userinfo)


def test_no_proxy_sends_the_request_direct(
        stub_http_server, stub_requests, proxy_env):
    proxy_env("http_proxy", f"http://127.0.0.1:{refused_port()}")
    proxy_env("no_proxy", "127.0.0.1")
    url = f"{stub_http_server}/live"
    (old, new), (old_requests, new_requests) = probe_both(url, stub_requests)
    assert new == old and new.kind == OK
    assert new_requests == old_requests
    assert new_requests[0][0] == "HEAD /live HTTP/1.1"


def test_https_proxy_gets_a_connect(stub_http_server, stub_requests,
                                    proxy_env):
    proxy_env("https_proxy", stub_http_server)
    url = "https://127.0.0.1:9/live"
    (old, new), (old_requests, new_requests) = probe_both(url, stub_requests)
    # the stub answers the CONNECT with 200 and closes: TLS fails after it
    assert new.kind == old.kind == UNREACHABLE
    assert new_requests == old_requests
    assert new_requests[0][0] == "CONNECT 127.0.0.1:9 HTTP/1.0"


def test_a_refused_tunnel_is_unreachable(stub_http_server, stub_requests,
                                         proxy_env):
    proxy_env("https_proxy", stub_http_server)
    url = "https://dead.invalid/x"  # the proxy, not the client, looks it up
    (old, new), (old_requests, new_requests) = probe_both(url, stub_requests)
    assert new == old
    assert new_requests == old_requests == [("CONNECT dead.invalid:443 "
                                             "HTTP/1.0", ())]
    assert new.detail == "Tunnel connection failed: 404 Not Found"


# -- where the client differs from urllib on purpose --------------------------

@pytest.mark.parametrize("path, ours", [
    ("/raw/early-hints", (OK, 200)),
    # a bare interim reply, then the connection closes
    ("/status/103", (UNREACHABLE, None)),
], ids=["/raw/early-hints", "/status/103"])
def test_interim_replies_differ_from_urllib(stub_http_server, path, ours):
    # http.client skips 100 Continue alone and took 103 Early Hints for the
    # final reply
    url = stub_http_server + path
    old = LegacyProber(5).probe(url)
    assert (old.kind, old.status) == (HTTP_ERROR, 103)
    new = HttpProber(5).probe(url)
    assert (new.kind, new.status) == ours


def test_a_port_out_of_range_is_malformed_not_wrapped(stub_http_server):
    port = int(stub_http_server.rsplit(":", 1)[1])
    url = f"http://127.0.0.1:{port + 65536}/live"
    # urllib asked the socket layer for the port, which wrapped it round
    assert LegacyProber(5).probe(url).kind == OK
    assert HttpProber(5).probe(url).kind == MALFORMED


@pytest.mark.parametrize("url", ["http://127.0.0.1:-1/", "http://:80/",
                                 "http://user@/x", "http://[]/"])
def test_no_host_or_a_negative_port_is_malformed(url):
    # urllib looked these up and found no answer
    assert HttpProber(5).probe(url).kind == MALFORMED


def test_userinfo_is_dropped_from_the_request(stub_http_server,
                                              stub_requests):
    # urllib looked up "user:pw@127.0.0.1" as a host name and found none
    url = stub_http_server.replace("//", "//user:pw@") + "/live"
    assert HttpProber(5).probe(url).kind == OK
    host = dict(stub_requests[0][1])["Host"]
    assert host == stub_http_server[len("http://"):]


def test_a_redirect_to_ftp_is_refused_like_any_other_scheme(
        stub_http_server):
    url = f"{stub_http_server}/redirect/302?ftp://127.0.0.1:1/x"
    # urllib followed it into an FTP connection
    assert LegacyProber(5).probe(url).kind == UNREACHABLE
    result = HttpProber(5).probe(url)
    assert (result.kind, result.status) == (HTTP_ERROR, 302)
    assert result.detail == ("Found - Redirection to url "
                             "'ftp://127.0.0.1:1/x' is not allowed")
