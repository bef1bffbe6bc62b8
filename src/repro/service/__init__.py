"""Long-lived experiment service with a content-addressed result cache.

The serving story on top of the offline sweep stack: configs POST to a
long-lived HTTP server, canonicalize through the repo-wide cell-digest
machinery, and repeat requests are answered from the cache instead of
re-simulating.  See ``docs/SERVICE.md`` for the endpoint reference and
``repro serve`` for the CLI entry point.

Layers:

- :mod:`repro.service.core` -- framework-agnostic service (cache
  probes, single-flight dedup, background job pool); the wire contract.
- :mod:`repro.service.http` -- stdlib ``ThreadingHTTPServer`` transport
  (no dependencies; what tier-1 and CI exercise).
"""

from repro.service.core import (
    DEFAULT_STORE_DIR,
    ExperimentService,
    JOB_STATES,
)
from repro.service.http import make_server, serve

__all__ = [
    "DEFAULT_STORE_DIR",
    "ExperimentService",
    "JOB_STATES",
    "make_server",
    "serve",
]
