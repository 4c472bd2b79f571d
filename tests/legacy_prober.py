"""The urllib request path that HttpProber used before its socket client,
kept as the oracle of the differential tests in test_http_client.py.

Only `_request` differs from HttpProber: URL checks, IRI handling, the GET
retry and memoization are shared.  A fresh opener per request reads the
proxy environment each time, so a test may change it between probes.
"""

import http.client
import urllib.error
import urllib.request

from semlint.builtins import (HTTP_ERROR, MALFORMED, OK, TIMEOUT, UNREACHABLE,
                              HttpProber, UrlProbeResult)


class LegacyProber(HttpProber):
    def _request(self, url: str, target: str, method: str) -> UrlProbeResult:
        try:
            req = urllib.request.Request(target, method=method)
            opener = urllib.request.build_opener()
            with opener.open(req, timeout=self.timeout) as resp:
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
