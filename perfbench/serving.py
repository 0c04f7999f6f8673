"""The HTTP side: launch ``repro serve``, drive it, stop it.

:class:`Server` runs the program as a child process exactly as an
operator would (``python -m repro serve <catalog.db> --port 0``, default
config) or, for a traced run, through ``traced_serve.py``, which wraps
the layer functions and then calls the same CLI entry point.
:func:`closed_loop` drives it with kept-alive connections, one thread
per connection, each sending its next request only after the previous
reply has been read and decoded.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlencode

#: Page size of every search the benchmark sends.
LIMIT = 10
_URL = re.compile(rb"at http://([0-9.]+):([0-9]+)")
_COUNTER = re.compile(r"^repro_([a-z0-9_]+)_total ([0-9.eE+-]+)$", re.M)


def search_path(text: str) -> str:
    return "/search?" + urlencode({"q": text, "limit": LIMIT})


class Server:
    """One ``repro serve`` child process over a catalog file."""

    def __init__(self, root: str, catalog: str, env: dict, work: str,
                 trace_out: str | None = None):
        self.started = time.perf_counter()
        here = os.path.dirname(os.path.abspath(__file__))
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, os.path.join(here, "traced_serve.py"),
                    trace_out]
        argv += ["serve", catalog, "--port", "0"]
        self._stderr = open(os.path.join(work, "serve.stderr"), "ab")
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.host, self.port = self._await_address(60.0)

    def _await_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("repro serve did not report its address")
            ready, __, __ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited early ({self.process.wait()})"
                )
            match = _URL.search(line)
            if match:
                return match.group(1).decode(), int(match.group(2))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def counters(self) -> dict[str, float]:
        """The program's own counters, scraped from ``/metrics``."""
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        return {
            name: float(value) for name, value in _COUNTER.findall(text)
        }

    def cache_stats(self) -> dict:
        """``QueryCache.stats()`` as reported by ``/healthz``."""
        conn = self.connect()
        try:
            conn.request("GET", "/healthz")
            return json.loads(conn.getresponse().read())["cache"]
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing")

    def stop(self) -> int:
        """SIGTERM (the CLI drains and exits), then wait; kill if stuck."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self._stderr.close()
        return process.returncode


class Sample:
    """One timed request as the client saw it.

    ``latency`` runs from sending the request to having decoded the
    body; the rest is read from a 200 body (``None`` otherwise).
    """

    __slots__ = ("text", "status", "latency", "version", "queued",
                 "total", "page")

    def __init__(self, text: str, status: int, latency: float,
                 body: dict | None = None) -> None:
        self.text = text
        self.status = status
        self.latency = latency
        self.version = self.queued = self.total = self.page = None
        if body is not None:
            self.version = body["version"]
            self.queued = body["queued_seconds"]
            self.total = body["total_seconds"]
            self.page = [[r["dataset_id"], r["score"]]
                         for r in body["results"]]


def request(conn, text: str, path: str) -> Sample:
    """One timed GET /search on a kept-alive connection."""
    started = time.perf_counter()
    conn.request("GET", path)
    response = conn.getresponse()
    raw = response.read()
    body = json.loads(raw) if response.status == 200 else None
    latency = time.perf_counter() - started
    return Sample(text, response.status, latency, body)


def closed_loop(server: Server, streams: list, seconds: float):
    """Drive one kept-alive connection per text stream for ``seconds``.

    Each stream yields query texts; a path is encoded before its
    request's timer starts.  Returns ``(samples, wall seconds)`` where the wall time
    runs from the common start to the last reply.
    """
    conns = [server.connect() for __ in streams]
    for conn in conns:
        conn.connect()
    results: list[list[Sample]] = [[] for __ in streams]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(streams) + 1)
    deadline = [0.0]

    def drive(index: int) -> None:
        conn, out, texts = conns[index], results[index], streams[index]
        try:
            barrier.wait()
            for text in texts:
                if time.perf_counter() >= deadline[0]:
                    break
                path = search_path(text)
                try:
                    out.append(request(conn, text, path))
                except (OSError, http.client.HTTPException):
                    out.append(Sample(text, 0, 0.0))
                    conn.close()
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline[0] = start + seconds
    barrier.wait()
    for thread in threads:
        thread.join(seconds + 120.0)
    wall = time.perf_counter() - start
    for conn in conns:
        conn.close()
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client connection hung")
    return [sample for out in results for sample in out], wall
