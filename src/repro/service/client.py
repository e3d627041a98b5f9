"""Synchronous ND-JSON client for the job server.

Deliberately boring: one Unix-socket connection per request, a JSON
object per line in each direction, no threads.  ``watch`` is the one
streaming call — it holds its connection open and yields event dicts
until the job's ``job_done`` event arrives.  Tests, benchmarks and the
``repro-serve`` CLI all go through this class, so the wire protocol
has exactly one Python spelling.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Iterator, List, Optional

from repro.errors import ServiceError


class ServiceClient:
    """Talk to a :class:`~repro.service.server.JobServer` socket."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None):
        self.socket_path = str(socket_path)
        #: Per-read timeout; ``None`` blocks forever (``wait`` on a
        #: long matrix legitimately takes minutes).
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as error:
            sock.close()
            raise ServiceError(
                f"cannot reach server at {self.socket_path}: {error}"
            ) from None
        return sock

    def request(self, payload: dict) -> dict:
        """One request, one reply; raises on ``ok: false``."""
        with self._connect() as sock:
            handle = sock.makefile("rw", encoding="utf-8", newline="\n")
            handle.write(json.dumps(payload) + "\n")
            handle.flush()
            line = handle.readline()
        if not line:
            raise ServiceError("server closed the connection mid-request")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "request refused"))
        return reply

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def wait_ready(self, timeout: float = 30.0) -> dict:
        """Poll until the server socket answers ``ping`` (startup)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.ping()
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    def submit(
        self,
        matrix: Optional[str] = None,
        cells: Optional[List[dict]] = None,
        params: Optional[dict] = None,
        priority: int = 0,
        wait: bool = False,
    ) -> dict:
        """Submit a matrix or explicit cell list.

        With ``wait=True`` the reply only lands once the job has fully
        completed and carries its ``summary``.
        """
        payload: dict = {"op": "submit", "priority": priority}
        if matrix is not None:
            payload["matrix"] = matrix
        if cells is not None:
            payload["cells"] = cells
        if params is not None:
            payload["params"] = params
        if wait:
            payload["wait"] = True
        return self.request(payload)

    def wait(self, job: str) -> dict:
        """Block until ``job`` completes; returns its summary."""
        return self.request({"op": "wait", "job": job})["summary"]

    def watch(self, job: str) -> Iterator[dict]:
        """Yield a job's events (history replay, then live) to done."""
        with self._connect() as sock:
            handle = sock.makefile("rw", encoding="utf-8", newline="\n")
            handle.write(json.dumps({"op": "watch", "job": job}) + "\n")
            handle.flush()
            header = handle.readline()
            if not header:
                raise ServiceError("server closed the watch stream")
            reply = json.loads(header)
            if not reply.get("ok"):
                raise ServiceError(reply.get("error", "watch refused"))
            for line in handle:
                event = json.loads(line)
                yield event
                if event.get("event") == "job_done":
                    return

    def status(self) -> dict:
        return self.request({"op": "status"})

    def preempt(self, respawn: bool = True) -> dict:
        """SIGTERM the longest-running busy worker (drain/migration)."""
        return self.request({"op": "preempt", "respawn": respawn})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})


__all__ = ["ServiceClient"]
