"""Host-implemented predicates: year comparison, member lookup,
co-publication search and URL liveness probing.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import unicodedata
from typing import Optional

from . import DEFAULT_MAX_PROBES, DEFAULT_URL_TIMEOUT
from .engine import BuiltinRegistry
from .matcher import Bindings, match_term, string_projection
from .record import Record
from .terms import Functor, Term, Var


def _bound(t: Term, b: Bindings) -> str | Functor:
    """The value of an input, which BUILTIN_MODES makes ground or bound by
    b; pass 2 holds strings and ground functors only, never a node."""
    return b[t.name] if isinstance(t, Var) else t


def _bound_text(t: Term, b: Bindings) -> str:
    return string_projection(_bound(t, b))


def urls_to_probe(tests) -> list[str]:
    """The URL of every testurl test."""
    return [_bound_text(dt.test.goal.args[0], dt.captured) for dt in tests
            if dt.test.goal.name == "testurl" and len(dt.test.goal.args) == 3]


# -- URL probing ---------------------------------------------------------------

_NON_ASCII = re.compile(r"[^\x00-\x7f]+")
# what urllib.request sends, follows and gives up on
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]
_REDIRECTS = (301, 302, 303, 307, 308)
_MAX_REPEATS, _MAX_REDIRECTIONS = 4, 10
_LOOP_MESSAGE = ("The HTTP server returned a redirect error that would lead "
                 "to an infinite loop.\nThe last 30x error message was:\n")
_PUNCTUATION = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"  # string.punctuation
_PORTS = {"http": 80, "https": 443}
# urllib's split of a URL, http.client's limits on a reply, and the
# characters http.client keeps off the wire
_AUTHORITY = re.compile("(?://([^/#?]*))?(.*)", re.DOTALL)
_MAXLINE, _MAXHEADERS = 65536, 100
_CONTROL = re.compile("[\x00-\x20\x7f]")

OK = "ok"
HTTP_ERROR = "http_error"
UNREACHABLE = "unreachable"
TIMEOUT = "timeout"
MALFORMED = "malformed"


class UrlProbeResult(Record, frozen=True):
    __slots__ = ("url", "kind", "status", "detail")

    def __init__(self, url: str, kind: str, status: Optional[int] = None,
                 detail: str = ""):
        self.url = url
        self.kind = kind
        self.status = status
        self.detail = detail

    @property
    def live(self) -> bool:
        return self.kind == OK


class HttpProber:
    """HEAD probe (GET on method rejection) with memoization per URL.

    Each request is one HTTP/1.1 exchange on a socket of its own, read up to
    the end of the headers.  Redirects, proxies and certificates are handled
    as urllib.request handles them; ssl is loaded for the first https URL.
    """

    def __init__(self, timeout: float = DEFAULT_URL_TIMEOUT,
                 max_workers: int = DEFAULT_MAX_PROBES):
        self.timeout = timeout
        self.max_workers = max(1, max_workers)
        self._memo: dict[str, UrlProbeResult] = {}
        self._lock = threading.Lock()
        self.probe_count = 0
        self._tls = self._proxies = None  # made on first use

    def probe(self, url: str) -> UrlProbeResult:
        with self._lock:
            if url in self._memo:
                return self._memo[url]
        result = self._probe_uncached(url)
        with self._lock:
            self._memo.setdefault(url, result)
            return self._memo[url]

    def prefetch(self, urls: list[str]) -> None:
        with self._lock:
            pending = [url for url in dict.fromkeys(urls)
                       if url not in self._memo]
        if not pending:
            return
        # load the socket module before the workers start, not in the first
        # one while the rest wait: done so, urllib's stack cost 0.05-0.09 s
        import socket  # noqa: F401
        todo, failures = iter(pending), []

        def work():
            try:
                for url in todo:
                    self.probe(url)
            except Exception as exc:
                failures.append(exc)
        workers = [threading.Thread(target=work)
                   for _ in range(min(self.max_workers, len(pending)))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if failures:
            raise failures[0]

    def _probe_uncached(self, url: str) -> UrlProbeResult:
        import urllib.parse
        try:
            parsed = urllib.parse.urlsplit(url)
            # the request goes to the URI form of an IRI, without surrounding
            # white space as in urllib; the result, and so the report, keeps
            # the URL as the document wrote it
            target = (url if url.isascii() else _iri_to_uri(parsed)).strip()
        except ValueError as exc:
            return UrlProbeResult(url, MALFORMED, detail=str(exc))
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            return UrlProbeResult(url, MALFORMED, detail="not an absolute "
                                                         "http/https URL")
        with self._lock:
            self.probe_count += 1
        result = self._request(url, target, "HEAD")
        # some servers reject HEAD outright; retry with GET before judging
        if result.kind == HTTP_ERROR and result.status in (405, 501):
            result = self._request(url, target, "GET")
        return result

    def _request(self, url: str, target: str, method: str) -> UrlProbeResult:
        """The outcome of target after redirects, as urllib reports it."""
        from urllib.parse import quote, urljoin, urlparse, urlunparse
        visited: dict[str, int] = {}
        try:
            while True:
                status, reason, location = self._exchange(target, method)
                if 200 <= status < 300:
                    return UrlProbeResult(url, OK, status=status)
                if status not in _REDIRECTS or location is None:
                    return UrlProbeResult(url, HTTP_ERROR, status, reason)
                parts = urlparse(location)
                if parts.scheme not in ("http", "https", ""):
                    return UrlProbeResult(url, HTTP_ERROR, status, f"{reason} "
                                          f"- Redirection to url '{location}'"
                                          f" is not allowed")
                if not parts.path and parts.netloc:
                    parts = parts._replace(path="/")
                # percent-encode the header's ISO-8859-1 bytes and spaces
                target = urljoin(target, quote(urlunparse(parts), _PUNCTUATION,
                                               "iso-8859-1"))
                if (visited.get(target, 0) >= _MAX_REPEATS
                        or len(visited) >= _MAX_REDIRECTIONS):
                    return UrlProbeResult(url, HTTP_ERROR, status,
                                          _LOOP_MESSAGE + reason)
                visited[target] = visited.get(target, 0) + 1
                method = "GET"  # as urllib sends every redirected request
        except TimeoutError:
            return UrlProbeResult(url, TIMEOUT, detail="timed out")
        except OSError as exc:
            return UrlProbeResult(url, UNREACHABLE, detail=str(exc))
        except ValueError as exc:  # target cannot be put on the wire
            return UrlProbeResult(url, MALFORMED, detail=str(exc))

    def _exchange(self, target: str, method: str):
        """(status, reason, Location) of one request to target, which is
        split and sent as urllib.request splits and sends it."""
        import socket
        from urllib.parse import unquote
        url = target.rpartition("#")[0] if "#" in target else target
        scheme, _, rest = url.partition(":")
        scheme = scheme.lower()
        if scheme not in _PORTS:
            raise OSError(f"unknown url type: {scheme}")
        netloc, path = _AUTHORITY.match(rest).groups("")
        # urllib took "user@host" for a host name; the userinfo is dropped
        authority = unquote(netloc).rpartition("@")[2]
        host, port = _host_port(authority, _PORTS[scheme])
        path = path if path[:1] == "/" else "/" + path
        address, tls_name, tunnel, auth = (host, port), None, "", ""
        proxy = self._proxy(scheme, authority)
        if scheme == "https":
            tls_name = host
            if proxy:
                address = _host_port(proxy[1], 443)
                tunnel = f"CONNECT {host}:{port} HTTP/1.0\r\n{proxy[2]}\r\n"
        elif proxy:  # in absolute form, over TLS to an https proxy
            kind, hostport, auth = proxy
            address, path = _host_port(hostport, _PORTS[kind]), url
            tls_name = address[0] if kind == "https" else None
        for part in (host, path, authority):
            bad = _CONTROL.search(part)
            if bad:
                raise ValueError(f"URL can't contain control characters. "
                                 f"{part!r} (found at least {bad.group()!r})")
        request = (f"{method} {path} HTTP/1.1\r\nAccept-Encoding: identity\r\n"
                   f"Host: {authority}\r\nUser-Agent: {_USER_AGENT}\r\n{auth}"
                   f"Connection: close\r\n\r\n").encode("latin-1")
        context = self._context() if tls_name else None
        sock = socket.create_connection(address, self.timeout)
        try:
            if tunnel:
                sock.sendall(tunnel.encode("latin-1"))
                with sock.makefile("rb") as reply:
                    status, reason, _ = _read_head(reply)
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} "
                                  f"{reason}")
            if context:
                sock = context.wrap_socket(sock, server_hostname=tls_name)
            sock.sendall(request)
            with sock.makefile("rb") as reply:
                return _read_head(reply)
        finally:
            sock.close()

    def _context(self):
        with self._lock:
            if self._tls is None:
                import ssl
                self._tls = ssl.create_default_context()
                self._tls.set_alpn_protocols(["http/1.1"])  # as http.client
            return self._tls

    def _proxy(self, scheme: str, authority: str):
        """(scheme, host:port, Proxy-Authorization line) of the proxy that
        the environment names for a request, or None to go direct.  urllib
        is loaded only when a *_proxy variable other than no_proxy is set."""
        with self._lock:
            if self._proxies is None:
                self._proxies = {}
                if any(n.lower().endswith("_proxy") and n.lower() != "no_proxy"
                       for n in os.environ):
                    from urllib.request import getproxies_environment
                    self._proxies = getproxies_environment()
        if scheme not in self._proxies:
            return None
        from urllib.parse import unquote
        from urllib.request import _parse_proxy, proxy_bypass_environment
        if proxy_bypass_environment(authority, self._proxies):
            return None
        kind, user, password, hostport = _parse_proxy(self._proxies[scheme])
        if (kind or scheme) not in _PORTS:
            raise OSError(f"unknown url type: {kind}")
        auth = ""
        if user and password:
            import base64
            creds = f"{unquote(user)}:{unquote(password)}".encode()
            auth = ("Proxy-Authorization: Basic "
                    f"{base64.b64encode(creds).decode('ascii')}\r\n")
        return kind or scheme, unquote(hostport), auth


def _host_port(authority: str, default_port: int) -> tuple[str, int]:
    """Host and port as http.client splits them; ValueError for no host, or
    a port out of range, which the socket layer would wrap round."""
    host, colon, port = authority.rpartition(":")
    if not colon or "]" in port:  # no port, or the colon of an IPv6 literal
        host, port = authority, ""
    try:
        port = int(port or default_port)
    except ValueError:
        raise ValueError(f"nonnumeric port: '{port}'") from None
    host = host[1:-1] if host[:1] == "[" and host[-1:] == "]" else host
    if not host or not 0 <= port <= 65535:
        raise ValueError(f"no host, or a port out of range: {authority!r}")
    return host, port


def _read_head(reply) -> tuple[int, str, Optional[str]]:
    """(status, reason, Location) of a reply, read as http.client reads it,
    but skipping every interim 1xx reply but 101 (RFC 9110 15.2), not 100
    Continue alone.  A reply that is not HTTP/1.x is OSError."""
    status = 100
    while status < 200 and status != 101:
        line = reply.readline(_MAXLINE + 1).decode("iso-8859-1")
        if len(line) > _MAXLINE:
            raise OSError(f"got more than {_MAXLINE} bytes when reading status"
                          " line")
        version, status, reason = (line.split(None, 2) + ["", "", ""])[:3]
        status = int(status) if status.isdecimal() else 0
        if not version.startswith("HTTP/") or not 100 <= status <= 999:
            raise OSError(line or "Remote end closed connection without "
                                  "response")
        fields: dict[str, str] = {}
        for _ in range(_MAXHEADERS):
            line = reply.readline(_MAXLINE + 1).decode("iso-8859-1")
            if len(line) > _MAXLINE:
                raise OSError(f"got more than {_MAXLINE} bytes when reading "
                              "header line")
            if line in ("\r\n", "\n", ""):
                break
            name, colon, value = line.partition(":")
            if colon:
                fields.setdefault(name.lower(), value.lstrip(" \t").rstrip(
                    "\r\n"))
        else:
            raise OSError(f"got more than {_MAXHEADERS} headers")
    if version not in ("HTTP/1.0", "HTTP/0.9") and version[:7] != "HTTP/1.":
        raise OSError(version)
    return status, reason.strip(), fields.get("location", fields.get("uri"))


def _iri_to_uri(parsed) -> str:
    """An IRI as a URI (RFC 3987 section 3.1): the host IDNA-encoded, any
    other non-ASCII character percent-encoded as UTF-8, ASCII left as it is.
    ValueError (UnicodeError) when the host is not a valid IDNA name."""
    import urllib.parse
    userinfo, at, hostport = parsed.netloc.rpartition("@")
    # a non-ASCII host is a name, not a bracketed IPv6 literal
    host, colon, port = (hostport.partition(":") if hostport[:1] != "["
                         else (hostport, "", ""))
    if not host.isascii():
        host = host.encode("idna").decode("ascii")
    uri = parsed._replace(netloc=userinfo + at + host + colon + port).geturl()
    return _NON_ASCII.sub(lambda m: urllib.parse.quote(m[0]), uri)


def probe_answers(result: UrlProbeResult) -> Optional[tuple[str, str]]:
    """(answer1, answer2) for a failing probe; None when the URL is live."""
    if result.kind == OK:
        return None
    if result.kind == HTTP_ERROR:
        return (f"{result.url}:", f"ERROR {result.status}: {result.detail}")
    if result.kind == MALFORMED:
        return ("Malformed URL", result.url)
    return ("No answer or time out,",
            "The server seems to be down or does not exist")


# -- registry ------------------------------------------------------------------

def strip_accents(s: str) -> str:
    decomposed = unicodedata.normalize("NFD", s)
    return "".join(c for c in decomposed
                   if unicodedata.category(c) != "Mn").casefold()


def make_registry(prober=None, offline: bool = False,
                  normalize_names: bool = False) -> BuiltinRegistry:
    prober = prober if prober is not None else HttpProber()

    def sameyear(args, b, store):
        a = _bound_text(args[0], b).strip()
        c = _bound_text(args[1], b).strip()
        # as numbers only if both are digits: int() would also read "+2002"
        # and "2_002".  ValueError: more digits than int() converts
        try:
            equal = int(a) == int(c) if (a + c).isdecimal() else a == c
        except ValueError:
            equal = a == c
        return [b] if equal else []

    fold = strip_accents if normalize_names else None

    def personne1(args, b, store):
        wanted = tuple(fold(v) if fold and isinstance(v, str) else v
                       for v in (_bound(a, b) for a in args))
        groups = store.index("personne", 3, (0, 1, 2), fold)
        return [b] if wanted in groups else []

    def pubbyotherproject(args, b, store):
        title = _bound_text(args[0], b)
        project = _bound_text(args[1], b)
        other = args[2].name
        return [{**b, other: fact.args[1]}
                for fact in store.index("pub", 2, (0,)).get((title,), ())
                if isinstance(fact.args[1], str) and fact.args[1] != project]

    def testurl(args, b, store):
        url = _bound_text(args[0], b)
        a1 = args[1].name
        if offline:
            return []
        answers = probe_answers(prober.probe(url))
        if answers is None:
            return []
        # the second output may be the first one's variable again, as in
        # testurl($U, $A, $A): then there is a solution only if they agree
        solution = match_term(args[2], answers[1], {**b, a1: answers[0]})
        return [] if solution is None else [solution]

    return {
        ("sameyear", 2): sameyear,
        ("personne1", 3): personne1,
        ("pubbyotherproject", 3): pubbyotherproject,
        ("testurl", 3): testurl,
    }
