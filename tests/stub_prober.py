"""A prober with canned results, for tests that must not touch the network."""

from semlint.builtins import UNREACHABLE, UrlProbeResult


class StubProber:
    """Canned probe results for tests; records every URL asked for."""

    def __init__(self, results: dict[str, UrlProbeResult] | None = None):
        self.results = dict(results) if results else {}
        self.calls: list[str] = []

    def probe(self, url: str) -> UrlProbeResult:
        self.calls.append(url)
        if url in self.results:
            return self.results[url]
        return UrlProbeResult(url, UNREACHABLE, detail="no stub entry")

    def prefetch(self, urls: list[str]) -> None:
        pass
