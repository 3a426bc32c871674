"""Long-running synthesis serving (``repro serve``).

The paper's pitch is *near real-time* NL-to-code translation; this
package is the deployment shape that claim implies — a resident service
with warm grammar caches, not a per-query process.  Three layers:

* :class:`SynthesisService` (:mod:`repro.server.service`) — warm
  multi-domain routing, deadline propagation, structured errors,
  graceful drain, hot snapshot reload;
* :class:`RequestScheduler` (:mod:`repro.server.scheduler`) — bounded
  admission queueing with backpressure and per-domain concurrency
  budgets, sitting between the transports and the service;
* :mod:`repro.server.http` — ``POST /synthesize`` + ``GET
  /healthz``/``/stats``/``/domains`` over a stdlib threading HTTP server;
* :mod:`repro.server.multiproc` — pre-fork multi-worker serving
  (``repro serve --workers N``): a supervisor shares one listening
  socket across N forked worker processes, restarts crashes, fans out reload/drain, and merges per-worker stats;
* :mod:`repro.server.stdio` — the same payloads as JSON lines over
  stdin/stdout (language-server style, one child per editor session).

Clients live in :mod:`repro.client`; the wire format in
:mod:`repro.server.protocol` and docs/serving.md.
"""

from repro.server.http import (
    SynthesisHTTPServer,
    run_http,
    start_http_server,
)
from repro.server.multiproc import (
    WorkerStatsBoard,
    run_supervisor,
    write_port_file,
)
from repro.server.protocol import (
    BadRequest,
    SynthesisRequest,
    error_response,
    http_status,
    ok_response,
    parse_request,
)
from repro.server.scheduler import (
    Grant,
    QueueFull,
    RequestScheduler,
    SchedulerDraining,
)
from repro.server.service import ServerConfig, SynthesisService
from repro.server.stdio import serve_stdio

__all__ = [
    "ServerConfig",
    "SynthesisService",
    "RequestScheduler",
    "Grant",
    "QueueFull",
    "SchedulerDraining",
    "SynthesisHTTPServer",
    "SynthesisRequest",
    "BadRequest",
    "parse_request",
    "ok_response",
    "error_response",
    "http_status",
    "run_http",
    "start_http_server",
    "run_supervisor",
    "WorkerStatsBoard",
    "write_port_file",
    "serve_stdio",
]
