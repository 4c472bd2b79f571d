"""Host-implemented predicates: year comparison, member lookup,
co-publication search and URL liveness probing.
"""

from __future__ import annotations

import re
import threading
import unicodedata
from dataclasses import dataclass
from typing import Optional, Union

from .engine import BuiltinError, BuiltinRegistry
from .matcher import Bindings, SVal, TermVal, Value, string_projection
from .terms import Str, Term, Var


class InstantiationError(BuiltinError):
    pass


def _arg(t: Term, b: Bindings) -> Union[Value, str]:
    """Resolve a goal argument: a Value if bound, the var name if unbound."""
    if isinstance(t, Var):
        value = b.get(t.name)
        return value if value is not None else t.name
    if isinstance(t, Str):
        return SVal(t.value)
    return TermVal(t)


def _bound_text(t: Term, b: Bindings, pred: str) -> str:
    value = _arg(t, b)
    if isinstance(value, str):
        raise InstantiationError(f"{pred}: argument ${value} must be bound")
    return string_projection(value)


def _unbound_name(t: Term, b: Bindings, pred: str) -> str:
    value = _arg(t, b)
    if not isinstance(value, str):
        raise InstantiationError(f"{pred}: output argument must be unbound")
    return value


# -- URL probing ---------------------------------------------------------------

# Defaults shared by RunConfig, the CLI and HttpProber.  A probe mostly
# waits on the network; measured, more than 32 at once saved little, while
# each extra thread still adds to peak memory.
DEFAULT_URL_TIMEOUT = 10.0
DEFAULT_MAX_PROBES = 32

_NON_ASCII = re.compile(r"[^\x00-\x7f]+")

OK = "ok"
HTTP_ERROR = "http_error"
UNREACHABLE = "unreachable"
TIMEOUT = "timeout"
MALFORMED = "malformed"


@dataclass(frozen=True)
class UrlProbeResult:
    url: str
    kind: str
    status: Optional[int] = None
    detail: str = ""

    @property
    def live(self) -> bool:
        return self.kind == OK


class HttpProber:
    """HEAD probe (GET on method rejection) with memoization per URL.

    The HTTP stack is imported on first use, so offline runs never load it.
    """

    def __init__(self, timeout: float = DEFAULT_URL_TIMEOUT,
                 max_workers: int = DEFAULT_MAX_PROBES):
        self.timeout = timeout
        self.max_workers = max(1, max_workers)
        self._memo: dict[str, UrlProbeResult] = {}
        self._lock = threading.Lock()
        self.probe_count = 0

    def probe(self, url: str) -> UrlProbeResult:
        with self._lock:
            if url in self._memo:
                return self._memo[url]
        result = self._probe_uncached(url)
        with self._lock:
            self._memo.setdefault(url, result)
            return self._memo[url]

    def prefetch(self, urls: list[str]) -> None:
        pending = []
        with self._lock:
            for url in dict.fromkeys(urls):
                if url not in self._memo:
                    pending.append(url)
        if not pending:
            return
        from concurrent.futures import ThreadPoolExecutor
        # load the HTTP stack before the workers start: left to the first
        # worker, the import measured 0.05-0.09 s slower on urls-live
        import urllib.request
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            list(pool.map(self.probe, pending))

    def _probe_uncached(self, url: str) -> UrlProbeResult:
        import urllib.parse
        try:
            parsed = urllib.parse.urlsplit(url)
            # the request goes to the URI form of an IRI; the result, and
            # so the report, keeps the URL as the document wrote it
            target = url if url.isascii() else _iri_to_uri(parsed)
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
        import http.client
        import urllib.error
        import urllib.request
        try:
            req = urllib.request.Request(target, method=method)
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return UrlProbeResult(url, OK, status=resp.status)
        except urllib.error.HTTPError as exc:
            return UrlProbeResult(url, HTTP_ERROR, status=exc.code,
                                  detail=exc.reason or "")
        except TimeoutError:
            return UrlProbeResult(url, TIMEOUT, detail="timed out")
        except urllib.error.URLError as exc:
            reason = exc.reason
            if isinstance(reason, TimeoutError):
                return UrlProbeResult(url, TIMEOUT, detail="timed out")
            return UrlProbeResult(url, UNREACHABLE, detail=str(reason))
        except OSError as exc:
            return UrlProbeResult(url, UNREACHABLE, detail=str(exc))
        # urllib wraps only OSError: a URL that http.client cannot put on
        # the wire (a space in the path, a non-numeric port, an empty host
        # label) and a reply that is not HTTP come through raw
        except (http.client.InvalidURL, ValueError) as exc:
            return UrlProbeResult(url, MALFORMED, detail=str(exc))
        except http.client.HTTPException as exc:
            return UrlProbeResult(url, UNREACHABLE, detail=str(exc))


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


def _title_key(fact) -> Optional[str]:
    """A pub fact's title; None (never asked for) unless both args are Str."""
    title, project = fact.term.args
    if isinstance(title, Str) and isinstance(project, Str):
        return title.value
    return None


def make_registry(prober=None, offline: bool = False,
                  normalize_names: bool = False) -> BuiltinRegistry:
    prober = prober if prober is not None else HttpProber()

    def sameyear(args, b, store):
        a = _bound_text(args[0], b, "sameyear").strip()
        c = _bound_text(args[1], b, "sameyear").strip()
        try:
            equal = int(a) == int(c)
        except ValueError:
            equal = a == c
        return [b] if equal else []

    fold = strip_accents if normalize_names else (lambda s: s)

    def name_key(fact):
        return tuple(fold(a.value if isinstance(a, Str) else "")
                     for a in fact.term.args)

    def personne1(args, b, store):
        wanted = tuple(fold(_bound_text(a, b, "personne1")) for a in args)
        return [b] if wanted in store.index("personne", 3, name_key) else []

    def pubbyotherproject(args, b, store):
        title = _bound_text(args[0], b, "pubbyotherproject")
        project = _bound_text(args[1], b, "pubbyotherproject")
        other = _unbound_name(args[2], b, "pubbyotherproject")
        return [b.bind(other, SVal(fact.term.args[1].value))
                for fact in store.index("pub", 2, _title_key).get(title, ())
                if fact.term.args[1].value != project]

    def testurl(args, b, store):
        url = _bound_text(args[0], b, "testurl")
        a1 = _unbound_name(args[1], b, "testurl")
        a2 = _unbound_name(args[2], b, "testurl")
        if offline:
            return []
        answers = probe_answers(prober.probe(url))
        if answers is None:
            return []
        return [b.bind(a1, SVal(answers[0])).bind(a2, SVal(answers[1]))]

    return {
        ("sameyear", 2): sameyear,
        ("personne1", 3): personne1,
        ("pubbyotherproject", 3): pubbyotherproject,
        ("testurl", 3): testurl,
    }
