"""The serving system's benchmark: three workloads, timed layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 20 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``cold_scan``     ``repro serve`` child, 1 kept-alive connection, every
                    query text distinct (the query cache never hits).
* ``hot_zipf``      the same server, 2 kept-alive connections, Zipf(1.1)
                    over 32 texts after an untimed cache fill.
* ``publish_churn`` in-process ``SearchService`` over a file-backed
                    SQLite store: Zipf searches with a k-dataset publish
                    (``apply_batch`` + ``refresh(delta=...)``) every N.

``--trace 0`` runs the program as shipped and reports the end-to-end
metrics.  ``--trace 1`` runs each workload twice for half the time,
once as shipped and once with the layer probes of ``probes.py``
installed from outside the program, and reports the per-layer metrics
(including the tracing overhead between the two passes).

Every run checks its answers: pages against a cold serial
``SearchEngine(snapshot, cache=False)``, response status, and the
served catalog version.  A wrong page, a non-200 response or a stale
version counts as a failed operation.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full record (environment stamp, sample counts, checks) that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time

import probes
import serving

# ``inputs`` and the program itself are imported inside functions: they
# need ``src/`` on the path, which main() adds only after checking that
# the program's source is there.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold_scan", "hot_zipf", "publish_churn")
#: The program's processes run with this hash seed: across random hash
#: seeds the in-process cold query moves by several percent.
HASH_SEED = "0"
#: HTTP workloads: launches of ``repro serve`` per run; set-up time is
#: their median, and one k-dataset publish precedes every launch but
#: the first (publish-to-visible through a restart).  The timed loop
#: runs on launch MEASURED_LAUNCH.
LAUNCHES = 5
MEASURED_LAUNCH = 1
#: hot_zipf: kept-alive connections (= cores of the reference machine).
HOT_CONNECTIONS = 2
COLD_WARMUP = 4
#: cold_scan: served pages re-checked against the reference engine.
COLD_CHECKS = 24
#: publish_churn set-ups per run: one before the loop, the rest after.
CHURN_SETUPS = 5


# -- statistics ---------------------------------------------------------------

def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    """Nearest-rank 95th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hit_ratio(cache: dict) -> float:
    """Hits per lookup of a ``QueryCache.stats()`` delta."""
    return ratio(cache["hits"], cache["hits"] + cache["misses"])


class Metrics:
    """Named metrics with unit and sample count, in insertion order."""

    def __init__(self) -> None:
        self.items: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.items[name] = {"value": value, "unit": unit,
                            "samples": samples}

    def result(self) -> dict:
        return {name: {"value": item["value"], "unit": item["unit"]}
                for name, item in self.items.items()}


# -- environment --------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of a ``.git`` directory at the root, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    """SHA-256 over the program's source files (paths and contents)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def stamp(workload: str, seed: int) -> dict:
    import inputs

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "generator_sha256": inputs.generator_digest(),
        "sqlite_version": sqlite3.sqlite_version,
        "hash_seed": HASH_SEED,
        "workload": workload,
        "workload_seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


# -- correctness --------------------------------------------------------------

def sqlite_modes(catalog_path: str) -> tuple[str, str]:
    """Journal and sync mode the program's store sets on this file."""
    from repro.catalog import SqliteCatalog

    catalog = SqliteCatalog(catalog_path)
    try:
        conn = catalog._conn
        journal = conn.execute("PRAGMA journal_mode").fetchone()[0]
        sync = conn.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        catalog.close()
    return journal, {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}.get(
        sync, str(sync)
    )


def reference_pages(catalog_path: str, texts: list[str]) -> dict:
    """Pages of a cold serial engine over a snapshot of the catalog."""
    from repro.catalog import SqliteCatalog
    from repro.core import SearchEngine
    from repro.core.qparser import parse_query
    from repro.hierarchy import vocabulary_hierarchy

    catalog = SqliteCatalog(catalog_path)
    try:
        engine = SearchEngine(
            catalog.snapshot(), hierarchy=vocabulary_hierarchy(),
            cache=False,
        )
        return {
            text: [[r.dataset_id, r.score]
                   for r in engine.search(parse_query(text),
                                          limit=serving.LIMIT)]
            for text in texts
        }
    finally:
        catalog.close()


# -- HTTP workloads -----------------------------------------------------------

def publish(catalog_path: str, batch) -> tuple[int, float]:
    """Publish one batch into the file; (new version, seconds at start)."""
    from repro.catalog import SqliteCatalog

    catalog = SqliteCatalog(catalog_path)
    try:
        started = time.perf_counter()
        catalog.apply_batch(batch, ())
        version = catalog.version
    finally:
        catalog.close()
    return version, started


def launch(catalog_path: str, work: str, version: int,
           trace_out: str | None = None):
    """Start a server and wait for its first correct search.

    Returns ``(server, perf_counter time of that reply)``.
    """
    import inputs

    server = serving.Server(ROOT, catalog_path, child_env(), work,
                            trace_out=trace_out)
    try:
        conn = server.connect()
        try:
            sample = serving.request(
                conn, inputs.SETUP_TEXT,
                serving.search_path(inputs.SETUP_TEXT),
            )
        finally:
            conn.close()
        served_at = time.perf_counter()
        if sample.status != 200 or sample.version != version:
            raise RuntimeError(
                f"first search failed: status {sample.status}, "
                f"version {sample.version} (expected {version})"
            )
    except BaseException:
        server.stop()
        raise
    return server, served_at


def warm_up(server, texts: list[str]) -> None:
    """Untimed requests: fills the cache (hot) or warms code paths."""
    conn = server.connect()
    try:
        for text in texts:
            sample = serving.request(conn, text, serving.search_path(text))
            if sample.status != 200:
                raise RuntimeError(f"warm-up request failed: {sample.status}")
    finally:
        conn.close()


def http_streams(workload: str, seed: int):
    """(untimed warm-up texts, one text stream per connection)."""
    import inputs

    if workload == "cold_scan":
        return (inputs.warmup_texts(seed, COLD_WARMUP),
                [inputs.cold_texts(seed)])
    pool = inputs.hot_pool(seed)

    def zipf(index: int):
        for rank in inputs.zipf_indices(seed, len(pool), index):
            yield pool[rank]

    return pool, [zipf(i) for i in range(HOT_CONNECTIONS)]


def timed_pass(server, workload: str, seed: int, seconds: float) -> dict:
    """Warm up a launched server, run the closed loop, read it, stop it."""
    try:
        warm, streams = http_streams(workload, seed)
        warm_up(server, warm)
        cache_before = server.cache_stats()
        counters_before = server.counters()
        samples, wall = serving.closed_loop(server, streams, seconds)
        end = time.perf_counter()
        cache_after = server.cache_stats()
        counters_after = server.counters()
        peak_rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"repro serve exited with {code}")
    return {
        "samples": samples, "wall": wall, "window": (end - wall, end),
        "cache": {key: cache_after[key] - cache_before[key]
                  for key in ("hits", "misses", "evictions")},
        "counters": {name: value - counters_before.get(name, 0.0)
                     for name, value in counters_after.items()},
        "peak_rss_mb": peak_rss,
    }


def check_http(workload, seed, catalog_path, samples, version) -> dict:
    """Failed requests, stale versions and wrong pages of one pass."""
    import inputs

    texts = sorted({s.text for s in samples if s.status == 200})
    if workload == "cold_scan":
        texts = inputs.sample(seed, texts, COLD_CHECKS)
    reference = reference_pages(catalog_path, texts)
    ok = [s for s in samples if s.status == 200]
    return {
        "non_200": len(samples) - len(ok),
        "stale": sum(s.version != version for s in ok),
        "wrong_pages": sum(s.text in reference and s.page != reference[s.text]
                           for s in ok),
        "checked_texts": len(reference),
        "checked_requests": sum(s.text in reference for s in ok),
        "server_time_exceeds_client": sum(s.latency < s.total for s in ok),
    }


def run_http(workload: str, seed: int, seconds: float, trace: bool,
             work: str) -> dict:
    import inputs

    catalog_path = os.path.join(work, "catalog.db")
    inputs.write_catalog(catalog_path, seed)
    version = 1
    record: dict = {"config": {
        "connections": 1 if workload == "cold_scan" else HOT_CONNECTIONS,
        "loop": "closed", "launches": 2 if trace else LAUNCHES,
        "publish_k": inputs.PUBLISH_K,
        "catalog_size": inputs.CATALOG_SIZE, "hash_seed": HASH_SEED,
    }}
    if trace:
        server, __ = launch(catalog_path, work, version)
        untraced = timed_pass(server, workload, seed, seconds / 2)
        spans_path = os.path.join(work, "spans.json")
        server, __ = launch(catalog_path, work, version,
                            trace_out=spans_path)
        measured = timed_pass(server, workload, seed, seconds / 2)
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        record["per_layer"], record["reconcile"] = http_layers(
            untraced, measured, spans
        )
        # Both passes serve the same catalog version: check them as one.
        samples = untraced["samples"] + measured["samples"]
        checks = check_http(workload, seed, catalog_path, samples, version)
        attempted = len(samples)
    else:
        # Launch LAUNCHES times; before every launch but the first,
        # publish k datasets into the file.  ``repro serve`` has no push
        # refresh (and this benchmark never polls), so a publish becomes
        # visible to its clients through the restart: publish_visible
        # runs from apply_batch to the new server's first reply at the
        # new version.  The second server is the one the loop measures;
        # the launches after it run once its pages have been checked.
        # Spreading launches before and after the loop samples the
        # host's speed at more than one moment.
        setup_s, visible_s = [], []
        batches = inputs.publish_batches(seed)
        measured = checks = None
        for attempt in range(LAUNCHES):
            published_at = None
            if attempt:
                version, published_at = publish(catalog_path, next(batches))
            server, served_at = launch(catalog_path, work, version)
            setup_s.append(served_at - server.started)
            if published_at is not None:
                visible_s.append(served_at - published_at)
            if attempt == MEASURED_LAUNCH:
                measured = timed_pass(server, workload, seed, seconds)
                checks = check_http(workload, seed, catalog_path,
                                    measured["samples"], version)
            elif server.stop() != 0:
                raise RuntimeError("repro serve did not exit cleanly")
        record["end_to_end"] = end_to_end(
            setup_s,
            [s.latency * 1e3 for s in measured["samples"] if s.status == 200],
            measured["wall"], visible_s, measured["peak_rss_mb"],
        )
        attempted = len(measured["samples"]) + len(visible_s)
    cache = measured["cache"]
    checks["hit_ratio"] = hit_ratio(cache)
    record["checks"] = checks
    failed = checks["non_200"] + checks["stale"] + checks["wrong_pages"]
    record["sqlite"] = sqlite_modes(catalog_path)
    record.update(
        attempted=attempted, failed=failed,
        correct=failed == 0 and checks["server_time_exceeds_client"] == 0,
    )
    return record


def end_to_end(setup_s: list[float], latencies_ms: list[float],
               wall: float, visible_s: list[float],
               peak_rss_mb: float) -> Metrics:
    """The end-to-end metrics of one run (every workload reports all)."""
    metrics = Metrics()
    metrics.add("setup_s", p50(setup_s), "s", len(setup_s))
    metrics.add("search_p50_ms", p50(latencies_ms), "ms", len(latencies_ms))
    metrics.add("search_p95_ms", p95(latencies_ms), "ms", len(latencies_ms))
    metrics.add("search_qps", len(latencies_ms) / wall, "1/s",
                len(latencies_ms))
    metrics.add("publish_visible_p50_ms",
                p50([v * 1e3 for v in visible_s]), "ms", len(visible_s))
    metrics.add("peak_rss_mb", peak_rss_mb, "MB", 1)
    return metrics


#: Per-layer metrics: name, unit.  A layer that does not run in a
#: workload reports 0 with 0 samples (the full record says so).
PER_LAYER = (
    ("http.overhead_p50_ms", "ms"), ("http.overhead_p95_ms", "ms"),
    ("qparser.parse_p50_us", "us"),
    ("service.queued_p95_ms", "ms"),
    ("service.exec_p50_ms", "ms"), ("service.exec_p95_ms", "ms"),
    ("cache.hit_ratio", "ratio"), ("cache.evictions", "count"),
    ("search.engine_p50_ms", "ms"), ("search.engine_p95_ms", "ms"),
    ("search.candidates_ratio", "ratio"),
    ("search.prune_rescans_per_kq", "1/kq"),
    ("index.build_ms", "ms"), ("index.apply_ms", "ms"),
    ("columnar.freeze_ms", "ms"), ("columnar.freeze_from_ms", "ms"),
    ("columnar.rows_refrozen_per_publish", "rows"),
    ("store.snapshot_ms", "ms"), ("store.apply_batch_ms", "ms"),
    ("store.snapshot_cow_ms", "ms"),
    ("refresh.p50_ms", "ms"), ("refresh.other_ms", "ms"),
    ("refresh.migrate_ms", "ms"), ("refresh.entries_carried", "count"),
    ("refresh.warm_ms", "ms"), ("refresh.warmed_queries", "count"),
    ("refresh.delta_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(values: dict) -> Metrics:
    """``{name: (value, samples)}`` as the full per-layer metric set."""
    metrics = Metrics()
    for name, unit in PER_LAYER:
        value, samples = values.get(name, (0.0, 0))
        metrics.add(name, value, unit, samples)
    return metrics


def timings(prefix: str, values: list[float]) -> dict:
    return {f"{prefix}_p50_ms": (p50(values), len(values)),
            f"{prefix}_p95_ms": (p95(values), len(values))}


def overhead_pct(untraced_qps: float, traced_qps: float) -> float:
    return 100.0 * ratio(untraced_qps - traced_qps, untraced_qps)


def startup_layers(spans) -> dict:
    """Layers a cold engine build runs (outside any refresh)."""
    out = {}
    for metric, span in (("index.build_ms", "index.build"),
                         ("columnar.freeze_ms", "columnar.freeze"),
                         ("store.snapshot_ms", "store.snapshot")):
        values = probes.durations(spans, span, outside="refresh")
        out[metric] = (p50(values), len(values))
    return out


def http_layers(untraced: dict, traced: dict, spans) -> tuple[Metrics, dict]:
    ok = [s for s in traced["samples"] if s.status == 200]
    overhead = [(s.latency - s.total) * 1e3 for s in ok]
    window = traced["window"]
    parse = [d * 1e3 for d in probes.durations(spans, "qparser.parse",
                                              window=window)]
    engine = probes.durations(spans, "search.engine", outside="refresh",
                              window=window)
    cache = traced["cache"]
    counters = traced["counters"]
    qps = [
        sum(s.status == 200 for s in run["samples"]) / run["wall"]
        for run in (untraced, traced)
    ]
    values = {
        **timings("http.overhead", overhead),
        "qparser.parse_p50_us": (p50(parse), len(parse)),
        "service.queued_p95_ms": (p95([s.queued * 1e3 for s in ok]),
                                  len(ok)),
        **timings("service.exec",
                  [(s.total - s.queued) * 1e3 for s in ok]),
        "cache.hit_ratio": (hit_ratio(cache),
                            cache["hits"] + cache["misses"]),
        "cache.evictions": (cache["evictions"], 1),
        **timings("search.engine", engine),
        "search.candidates_ratio": (
            ratio(counters.get("prefilter_candidates_out", 0.0),
                  counters.get("prefilter_candidates_in", 0.0)),
            int(counters.get("search_cache_misses", 0.0)),
        ),
        "search.prune_rescans_per_kq": (
            1e3 * ratio(counters.get("search_prune_rescans", 0.0),
                        counters.get("search_cache_misses", 0.0)),
            int(counters.get("search_cache_misses", 0.0)),
        ),
        **startup_layers(spans),
        "trace.overhead_pct": (overhead_pct(*qps), 2),
    }
    # Per request, overhead + queued + exec is the client latency by
    # construction; a negative overhead would mean the server's own
    # clock saw more time than the client did, which fails the run
    # (``server_time_exceeds_client`` in the checks).
    reconcile = {
        "requests": len(ok),
        "min_overhead_ms": min(overhead, default=0.0),
    }
    return layer_metrics(values), reconcile


# -- publish_churn ------------------------------------------------------------

def churn_child(catalog_path: str, seed: int, seconds: float, setups: int,
                trace_out: str | None = None) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "churn.py"),
        "--catalog", catalog_path, "--seed", str(seed),
        "--seconds", repr(seconds), "--setups", str(setups),
    ]
    if trace_out is not None:
        argv += ["--trace-out", trace_out]
    done = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=seconds + 150.0)
    if done.returncode != 0:
        raise RuntimeError(
            f"churn.py exited with {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def copy_catalog(source: str, target: str) -> str:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(source + suffix):
            shutil.copyfile(source + suffix, target + suffix)
    return target


def churn_failures(out: dict) -> int:
    return out["stale"] + out["refresh_failures"] + out["wrong_pages"]


def churn_checks(out: dict) -> dict:
    counters = out["counters"]
    return {
        "stale": out["stale"],
        "refresh_failures": out["refresh_failures"],
        "wrong_pages": out["wrong_pages"],
        "checked_pages": out["checked_pages"],
        "delta_ratio": ratio(counters["refresh.delta_applied"],
                             counters["serve.snapshot_refreshes"]),
        "hit_ratio": hit_ratio(out["cache"]),
    }


def run_churn(seed: int, seconds: float, trace: bool, work: str) -> dict:
    import inputs

    catalog_path = os.path.join(work, "catalog.db")
    inputs.write_catalog(catalog_path, seed)
    record: dict = {"config": {
        "loop": "closed", "threads": 1, "pool": inputs.CHURN_POOL,
        "zipf_s": inputs.ZIPF_S, "every": inputs.CHURN_EVERY,
        "publish_k": inputs.PUBLISH_K, "catalog_size": inputs.CATALOG_SIZE,
        "setups": 1 if trace else CHURN_SETUPS, "hash_seed": HASH_SEED,
    }}
    if trace:
        untraced = churn_child(
            copy_catalog(catalog_path, os.path.join(work, "untraced.db")),
            seed, seconds / 2, 1,
        )
        spans_path = os.path.join(work, "spans.json")
        out = churn_child(
            copy_catalog(catalog_path, os.path.join(work, "traced.db")),
            seed, seconds / 2, 1, trace_out=spans_path,
        )
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        record["per_layer"], record["reconcile"] = churn_layers(
            untraced, out, spans
        )
        runs = (untraced, out)
    else:
        out = churn_child(catalog_path, seed, seconds, CHURN_SETUPS)
        record["end_to_end"] = end_to_end(
            out["setup_s"], [v * 1e3 for v in out["latency_s"]],
            out["loop"][1] - out["loop"][0], out["visible_s"],
            out["peak_rss_mb"],
        )
        runs = (out,)
    record["checks"] = churn_checks(out)
    record["sqlite"] = sqlite_modes(catalog_path)
    attempted = sum(run["searches"] + run["publishes"] for run in runs)
    failed = sum(churn_failures(run) for run in runs)
    delta_ok = all(
        run["counters"]["refresh.delta_applied"]
        == run["counters"]["serve.snapshot_refreshes"] == run["publishes"]
        for run in runs
    )
    # A negative refresh self time means overlapping traced parts: the
    # per-publish reconciliation does not hold.
    reconciled = not trace or record["reconcile"]["min_self_ms"] >= 0
    record.update(attempted=attempted, failed=failed,
                  correct=failed == 0 and delta_ok and reconciled)
    return record


def churn_layers(untraced: dict, out: dict, spans) -> tuple[Metrics, dict]:
    window = tuple(out["loop"])
    counters = out["counters"]
    publishes = out["publishes"]
    refreshes = probes.self_times(spans, "refresh")

    def part(*names: str) -> list[float]:
        return [sum(r["parts"].get(name, 0.0) for name in names)
                for r in refreshes]

    def spans_p50(metric: str, span: str) -> dict:
        values = probes.durations(spans, span, window=window)
        return {metric: (p50(values), len(values))}

    engine = probes.durations(spans, "search.engine", outside="refresh",
                              window=window)
    cache = out["cache"]
    n = len(refreshes)
    qps = [run["searches"] / (run["loop"][1] - run["loop"][0])
           for run in (untraced, out)]
    # The service takes parsed queries here, so qparser is not on the
    # request path and reports 0 with 0 samples.
    values = {
        "service.queued_p95_ms": (p95([v * 1e3 for v in out["queued_s"]]),
                                  len(out["queued_s"])),
        **timings("service.exec", [v * 1e3 for v in out["exec_s"]]),
        "cache.hit_ratio": (hit_ratio(cache),
                            cache["hits"] + cache["misses"]),
        "cache.evictions": (cache["evictions"], 1),
        **timings("search.engine", engine),
        "search.candidates_ratio": (
            ratio(counters["prefilter.candidates_out"],
                  counters["prefilter.candidates_in"]),
            counters["search.cache_misses"],
        ),
        "search.prune_rescans_per_kq": (
            1e3 * ratio(counters["search.prune_rescans"],
                        counters["search.cache_misses"]),
            counters["search.cache_misses"],
        ),
        **startup_layers(spans),
        "index.apply_ms": (p50(part("index.copy", "index.apply")), n),
        **spans_p50("columnar.freeze_from_ms", "columnar.freeze_from"),
        "columnar.rows_refrozen_per_publish": (
            ratio(counters["columnar.rows_refrozen"], publishes), publishes
        ),
        **spans_p50("store.apply_batch_ms", "store.apply_batch"),
        **spans_p50("store.snapshot_cow_ms", "store.snapshot_cow"),
        "refresh.p50_ms": (p50([r["total"] for r in refreshes]), n),
        "refresh.other_ms": (p50([r["other"] for r in refreshes]), n),
        "refresh.migrate_ms": (p50(part("refresh.migrate")), n),
        "refresh.entries_carried": (
            ratio(counters["refresh.cache_entries_carried"], publishes),
            publishes,
        ),
        "refresh.warm_ms": (p50(part("search.engine")), n),
        "refresh.warmed_queries": (
            ratio(counters["refresh.warmed_queries"], publishes), publishes
        ),
        "refresh.delta_ratio": (
            ratio(counters["refresh.delta_applied"],
                  counters["serve.snapshot_refreshes"]),
            publishes,
        ),
        "trace.overhead_pct": (overhead_pct(*qps), 2),
    }
    # Per publish, the traced parts plus self time sum to the refresh
    # by construction; a negative self time would mean overlapping
    # parts (double counting), which fails the run.
    reconcile = {
        "refreshes": n,
        "parts": sorted({name for r in refreshes for name in r["parts"]}),
        "min_self_ms": min((r["other"] for r in refreshes), default=0.0),
    }
    return layer_metrics(values), reconcile


# -- entry point --------------------------------------------------------------

def report(record: dict, metrics: Metrics) -> None:
    """The human-readable part of standard output."""
    env = record["stamp"]
    print(f"perfbench {env['workload']} seed={env['workload_seed']} "
          f"trace={record['trace']}")
    print("  " + ", ".join(f"{key}={env[key]}" for key in (
        "cpu_count", "python", "git_sha", "sqlite_version",
        "sqlite_journal", "sqlite_synchronous", "hash_seed",
        "catalog_size")))
    for name, item in metrics.items.items():
        print(f"  {name:<36} {item['value']:>14.4f} {item['unit']:<6}"
              f" n={item['samples']}")
    print(f"  checks: {json.dumps(record['checks'], sort_keys=True)}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the serving system (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # The program, and the catalog generator the inputs come from.
    for required in (os.path.join(SRC, "repro", "__init__.py"),
                     os.path.join(ROOT, "benchmarks",
                                   "bench_perf_search.py")):
        if not os.path.isfile(required):
            print(f"error: {required} is missing", file=sys.stderr)
            return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Pin the hash seed of this process too (it publishes and runs
        # the reference engine); children inherit it.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, SRC)

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        if args.workload == "publish_churn":
            record = run_churn(args.seed, args.seconds, bool(args.trace),
                               work)
        else:
            record = run_http(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    journal, synchronous = record.pop("sqlite")
    record["stamp"] = {
        **stamp(args.workload, args.seed),
        "catalog_size": record["config"]["catalog_size"],
        "sqlite_journal": journal,
        "sqlite_synchronous": synchronous,
    }
    record["trace"] = args.trace
    key = "per_layer" if args.trace else "end_to_end"
    metrics = record[key]
    record[key] = metrics.items
    report(record, metrics)
    if not record["correct"]:
        print(f"FAILED: not correct ({record['failed']} of "
              f"{record['attempted']} operations failed); "
              f"checks {record['checks']}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics.result(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
