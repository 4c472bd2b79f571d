"""Loopback HTTP stub for the `urls-live` workload.

One asyncio loop on one thread answers every request after a fixed delay,
with a status set by the URL path (`/r/<kind>/...`, kinds from `corpus`).
A second socket is bound but never listens, so URLs on its port are refused
by the kernel without reaching any server.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import Counter

from corpus import URL_404, URL_405

_REASONS = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
            400: "Bad Request"}


class StubServer:
    """Start with `with StubServer(delay) as srv:`; stops on exit."""

    def __init__(self, delay: float):
        self.delay = delay
        self.replies: Counter = Counter()   # (method, status) -> count
        self._loop = asyncio.new_event_loop()
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._refusing: socket.socket | None = None
        self.base_url = ""
        self.refused_url = ""

    def __enter__(self) -> "StubServer":
        self._refusing = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._refusing.bind(("127.0.0.1", 0))
        port = self._refusing.getsockname()[1]
        self.refused_url = f"http://127.0.0.1:{port}"
        started = threading.Event()
        self._thread = threading.Thread(target=self._serve, args=(started,),
                                        name="perfbench-stub", daemon=True)
        self._thread.start()
        if not started.wait(10) or self._server is None:
            self.__exit__(None, None, None)
            raise RuntimeError("stub server did not start")
        port = self._server.sockets[0].getsockname()[1]
        self.base_url = f"http://127.0.0.1:{port}"
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10)
            if self._thread.is_alive():
                raise RuntimeError("stub server thread did not stop")
        if self._refusing is not None:
            self._refusing.close()
        if not self._loop.is_closed():
            self._loop.close()

    def _serve(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(self._handle, "127.0.0.1", 0,
                                     backlog=64))
        finally:
            started.set()
        try:
            self._loop.run_forever()
        finally:
            self._server.close()
            self._loop.run_until_complete(self._server.wait_closed())
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await reader.readline()
            while (await reader.readline()) not in (b"\r\n", b"\n", b""):
                pass
            parts = request.decode("latin-1").split()
            method, path = parts[:2] if len(parts) >= 2 else ("", "")
            status = self._status(method, path)
            self.replies[(method, status)] += 1
            await asyncio.sleep(self.delay)
            writer.write(f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                         f"Content-Length: 0\r\nConnection: close\r\n\r\n"
                         .encode("ascii"))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    @staticmethod
    def _status(method: str, path: str) -> int:
        if method not in ("HEAD", "GET") or not path.startswith("/r/"):
            return 400
        kind = path.split("/")[2]
        if kind == URL_404:
            return 404
        if kind == URL_405 and method == "HEAD":
            return 405
        return 200
