"""Stdlib HTTP transport for the experiment service.

A :class:`~http.server.ThreadingHTTPServer` whose handler serializes
the ``(status, payload)`` tuples returned by
:class:`repro.service.core.ExperimentService` -- the whole wire
contract lives in the core.  Threading matters even though
simulations queue on a worker pool: concurrent clients must be able
to POST/poll while a cell runs, and the single-flight dedup is only
observable when requests overlap.

No dependencies beyond the standard library: tier-1 tests and the CI
service smoke run exactly the transport that ships.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.core import ExperimentService

#: cell digests are 32 lowercase hex chars (blake2b-16)
_DIGEST_RE = re.compile(r"^/experiments/([0-9a-f]{32})$")

#: request bodies larger than this are rejected outright (the config
#: schema is a handful of scalar knobs; nothing legitimate is near 1 MB)
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # without TCP_NODELAY, Nagle + delayed ACK adds ~40 ms to every
    # keep-alive response -- dwarfing the actual cache-hit work
    disable_nagle_algorithm = True

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            return None, (413, {"error": "request body too large"})
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None, (400, {"error": "empty request body; send a "
                                "JSON experiment config"})
        try:
            return json.loads(raw), None
        except ValueError as exc:
            return None, (400, {"error": f"request body is not JSON: {exc}"})

    # -- routes ---------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        if urlparse(self.path).path != "/experiments":
            self._reply(404, {"error": f"no POST route {self.path!r}"})
            return
        payload, error = self._read_json()
        if error is not None:
            self._reply(*error)
            return
        self._reply(*self.service.submit(payload))

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        parsed = urlparse(self.path)
        path = parsed.path
        match = _DIGEST_RE.match(path)
        if match:
            self._reply(*self.service.status(match.group(1)))
        elif path == "/cache/stats":
            self._reply(*self.service.cache_stats())
        elif path == "/trajectory":
            query = parse_qs(parsed.query)
            prefix = query.get("prefix", [None])[0]
            self._reply(*self.service.trajectory(prefix))
        elif path == "/healthz":
            self._reply(*self.service.health())
        elif path.startswith("/experiments/"):
            self._reply(400, {
                "error": "experiment digests are 32 hex chars, got "
                f"{path.removeprefix('/experiments/')!r}"
            })
        else:
            self._reply(404, {"error": f"no GET route {path!r}"})


class ExperimentHTTPServer(ThreadingHTTPServer):
    """Threading server bound to one :class:`ExperimentService`."""

    daemon_threads = True

    def __init__(self, address, service: ExperimentService,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def make_server(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ExperimentHTTPServer:
    """Bind (but do not start) the stdlib server; ``port=0`` picks a
    free ephemeral port (``server.server_address`` has the real one)."""
    return ExperimentHTTPServer((host, port), service, verbose=verbose)


def serve(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    verbose: bool = True,
) -> None:
    """Blocking serve loop (the ``repro serve`` CLI entry point)."""
    server = make_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro experiment service on http://{bound_host}:{bound_port} "
          f"(store: {service.store.root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()


__all__ = ["ExperimentHTTPServer", "MAX_BODY_BYTES", "make_server", "serve"]
