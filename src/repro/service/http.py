"""Stdlib HTTP/JSON front end for the sweep service (``repro serve``).

No web framework: :class:`http.server.ThreadingHTTPServer` handles
requests while a single executor thread drains the job queue — handler
threads only submit and read snapshots taken under the queue's lock, so
the simulation pipeline itself stays single-driver.

Endpoints::

    POST /sweeps            submit a sweep         → 202 {"job_id": ...}
                            (503 + Retry-After when admission control
                            sheds the submission)
    GET  /sweeps            list jobs + progress
    GET  /sweeps/<id>       one job's progress
    GET  /sweeps/<id>/result  (possibly partial) results + provenance
    GET  /healthz           liveness
    GET  /stats             cache/supervisor/breaker/queue counters

A sweep submission is either the full serialized form
(:meth:`~repro.experiments.spec.SweepSpec.to_dict`) or the compact form
using registered names::

    {"configs": ["2d", "3d-fast"], "mixes": ["M1", "M3"],
     "scale": "smoke", "seed": 42}
"""

from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..common.errors import InjectedServiceCrash, ServiceOverloadError
from ..experiments.faults import CRASH_EXITCODE
from ..experiments.persistence import table_to_dict
from ..experiments.spec import SweepSpec, config_from_dict, scale_from_dict
from ..system.scale import get_scale
from ..workloads.mixes import MIXES
from .service import ServiceResult, SweepService

#: Seconds a shed client is told to wait before resubmitting.
RETRY_AFTER_SECONDS = 30


def parse_sweep_request(body: dict) -> SweepSpec:
    """Build a ``SweepSpec`` from a request body (compact or full form)."""
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    configs = body.get("configs")
    mixes = body.get("mixes")
    scale = body.get("scale", "smoke")
    if not configs or not mixes:
        raise ValueError("request needs non-empty 'configs' and 'mixes'")
    if all(isinstance(c, str) for c in configs):
        from ..cli import CONFIGS  # deferred: cli imports are heavy

        unknown = [c for c in configs if c not in CONFIGS]
        if unknown:
            raise ValueError(
                f"unknown config names {unknown}; known: {sorted(CONFIGS)}"
            )
        config_objs = tuple(CONFIGS[c]() for c in configs)
    else:
        config_objs = tuple(config_from_dict(c) for c in configs)
    if all(isinstance(m, str) for m in mixes):
        unknown = [m for m in mixes if m not in MIXES]
        if unknown:
            raise ValueError(
                f"unknown mix names {unknown}; known: {sorted(MIXES)}"
            )
        mix_objs = tuple(MIXES[m] for m in mixes)
    else:
        spec_dict = dict(body)
        return SweepSpec.from_dict(spec_dict)
    scale_obj = (
        get_scale(scale) if isinstance(scale, str) else scale_from_dict(scale)
    )
    return SweepSpec(
        configs=config_objs,
        mixes=mix_objs,
        scale=scale_obj,
        seed=int(body.get("seed", 42)),
        checkers=body.get("checkers"),
        sampling=body.get("sampling"),
    )


def result_to_json(result: ServiceResult) -> dict:
    """Wire form of a (possibly partial) service result."""
    return {
        "job_id": result.job_id,
        "state": result.state,
        "complete": result.complete,
        "notes": result.notes,
        "provenance": {
            f"{config}/{mix}": source
            for (config, mix), source in sorted(result.provenance.items())
        },
        "table": table_to_dict(result.table),
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the bound :class:`SweepService`."""

    service: SweepService  # injected by make_handler
    quiet: bool = True

    # -- plumbing --------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict, headers=()) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw.decode("utf-8"))

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.rstrip("/") != "/sweeps":
            self._reply(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            spec = parse_sweep_request(self._read_body())
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        try:
            job_id = self.service.submit(spec)
        except ServiceOverloadError as exc:
            self._reply(
                503,
                {"error": str(exc), "retry_after": RETRY_AFTER_SECONDS},
                headers=[("Retry-After", str(RETRY_AFTER_SECONDS))],
            )
            return
        self._reply(202, {"job_id": job_id})

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.rstrip("/")
        if path == "/healthz":
            self._reply(200, {"ok": True})
            return
        if path == "/stats":
            self._reply(200, self.service.stats())
            return
        if path == "/sweeps":
            self._reply(200, {"jobs": self.service.statuses()})
            return
        if path.startswith("/sweeps/"):
            parts = path.split("/")
            job_id = parts[2]
            try:
                if len(parts) == 3:
                    self._reply(200, self.service.status(job_id))
                elif len(parts) == 4 and parts[3] == "result":
                    self._reply(
                        200, result_to_json(self.service.result(job_id))
                    )
                else:
                    self._reply(404, {"error": f"no such endpoint: {path}"})
            except KeyError:
                self._reply(404, {"error": f"unknown job {job_id!r}"})
            return
        self._reply(404, {"error": f"no such endpoint: {path}"})


def make_handler(service: SweepService, quiet: bool = True):
    return type(
        "BoundHandler", (_Handler,), {"service": service, "quiet": quiet}
    )


class ServiceServer:
    """HTTP listener + executor thread around a :class:`SweepService`."""

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer(
            (host, port), make_handler(service, quiet)
        )
        self.host, self.port = self.httpd.server_address[:2]
        self._stop = threading.Event()
        self._threads: list = []

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _executor_loop(self) -> None:
        """Drain queued jobs; wake promptly on submission."""
        while not self._stop.is_set():
            try:
                self.service.process()
            except InjectedServiceCrash:
                # A chaos fault killed "the service": die for real so an
                # external supervisor (or the chaos harness) restarts us.
                sys.stderr.write("injected service crash\n")
                sys.stderr.flush()
                os._exit(CRASH_EXITCODE)
            except Exception as exc:  # pragma: no cover - defensive
                sys.stderr.write(f"executor error: {exc}\n")
                sys.stderr.flush()
            self.service.wakeup.wait(timeout=0.2)
            self.service.wakeup.clear()

    def start(self) -> None:
        """Serve in background threads (tests); returns immediately."""
        for target in (self._executor_loop, self.httpd.serve_forever):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)

    def serve_forever(self) -> None:
        """Blocking serve (the CLI): Ctrl-C shuts down cleanly."""
        executor = threading.Thread(target=self._executor_loop, daemon=True)
        executor.start()
        self._threads.append(executor)
        try:
            self.httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        self.service.wakeup.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self.service.close()


__all__ = [
    "RETRY_AFTER_SECONDS",
    "ServiceServer",
    "make_handler",
    "parse_sweep_request",
    "result_to_json",
]
