"""In-process publish/search loop over a file-backed SQLite catalog.

Run as a child of ``run.py`` (``python perfbench/churn.py ...``) so the
process that hosts the program holds nothing of the benchmark's own
state: its peak RSS is the program's, and its hash seed is pinned by the
parent.  One thread, closed loop: ``SearchService.search`` calls drawn
from a drifting Zipf pool, and after every ``inputs.CHURN_EVERY``
searches one publish, exactly as the wrangler publishes:

    base = catalog.version
    catalog.apply_batch(PUBLISH_K features)  # one transaction, one bump
    service.refresh(delta=PublishDelta(...)) # O(changed) warm handoff

Publishes happen by count, never on a timer, and nothing polls.  After
``--seconds`` of this loop it checks staleness and every page of the
final pool against a cold serial ``SearchEngine(snapshot, cache=False)``,
and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import time

import inputs
from probes import Tracer
from serving import LIMIT

#: Counters read from the service's telemetry registry, before and
#: after the timed loop.
COUNTERS = (
    "prefilter.candidates_in", "prefilter.candidates_out",
    "search.prune_rescans", "search.cache_misses",
    "refresh.delta_applied", "serve.snapshot_refreshes",
    "refresh.cache_entries_carried", "refresh.warmed_queries",
    "columnar.rows_refrozen", "columnar.refreezes",
)


def vm_hwm_mb() -> float:
    """Peak resident set size of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def page(results) -> list:
    return [[result.dataset_id, result.score] for result in results]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install()

    from repro.catalog import SqliteCatalog
    from repro.core import SearchEngine, qparser
    from repro.hierarchy import vocabulary_hierarchy
    from repro.serve import SearchService
    from repro.wrangling.state import PublishDelta

    pool = inputs.DriftingPool(args.seed)
    parsed: dict = {}

    def query(text: str):
        if text not in parsed:
            parsed[text] = qparser.parse_query(text)
        return parsed[text]

    first = query(inputs.SETUP_TEXT)

    def set_up():
        """Open the store, build the service, run the first search."""
        started = time.perf_counter()
        catalog = SqliteCatalog(args.catalog)
        service = SearchService(catalog, hierarchy=vocabulary_hierarchy())
        service.search(first, limit=LIMIT)
        return catalog, service, time.perf_counter() - started

    # One set-up builds the measured service; the others run after the
    # loop, so the set-up samples see the host at more than one moment.
    catalog, service, seconds = set_up()
    setup_s = [seconds]

    # -- untimed warm-up: fill the cache with the whole starting pool -----
    for text in pool.window():
        service.search(query(text), limit=LIMIT)

    telemetry = service.telemetry
    counters_before = {name: telemetry.counter(name) for name in COUNTERS}
    cache_before = service.cache.stats()
    batches = inputs.publish_batches(args.seed)
    expected_version = service.snapshot_version
    latencies, queued, executed, visible = [], [], [], []
    stale = 0
    refresh_failures = 0
    searches = 0
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    while time.perf_counter() < deadline:
        next_query = query(pool.next_text())
        started = time.perf_counter()
        response = service.search(next_query, limit=LIMIT)
        latencies.append(time.perf_counter() - started)
        queued.append(response.queued_seconds)
        executed.append(response.total_seconds - response.queued_seconds)
        if response.snapshot_version != expected_version:
            stale += 1
        searches += 1
        if searches % inputs.CHURN_EVERY:
            continue
        batch = next(batches)
        upserted = [feature.dataset_id for feature in batch]
        base_version = catalog.version
        started = time.perf_counter()
        catalog.apply_batch(batch, ())
        published_version = catalog.version
        refreshed = service.refresh(
            delta=PublishDelta(
                upserted=upserted,
                base_version=base_version,
                published_version=published_version,
            )
        )
        visible.append(time.perf_counter() - started)
        if not refreshed or service.snapshot_version != published_version:
            refresh_failures += 1
        expected_version = published_version
        pool.drift()
    loop_end = time.perf_counter()
    peak_rss_mb = vm_hwm_mb()
    spans = tracer.snapshot() if tracer is not None else None
    cache_after = service.cache.stats()
    counters = {
        name: telemetry.counter(name) - counters_before[name]
        for name in COUNTERS
    }

    # -- correctness: final pages vs a cold serial engine -----------------
    checked = [query(text) for text in pool.window()]
    reference = SearchEngine(
        catalog.snapshot(), hierarchy=service.hierarchy, cache=False
    )
    wrong_pages = sum(
        page(service.search(q, limit=LIMIT).results)
        != page(reference.search(q, limit=LIMIT))
        for q in checked
    )
    if catalog.version != service.snapshot_version:
        stale += 1
    service.close()
    catalog.close()
    # Free the measured service so the later set-ups, like the first,
    # run without another catalog's worth of objects alive.
    del service, catalog, reference
    for __ in range(args.setups - 1):
        catalog, service, seconds = set_up()
        setup_s.append(seconds)
        service.close()
        catalog.close()
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)

    print(json.dumps({
        "setup_s": setup_s,
        "latency_s": latencies,
        "queued_s": queued,
        "exec_s": executed,
        "visible_s": visible,
        "searches": searches,
        "publishes": len(visible),
        "loop": [loop_start, loop_end],
        "peak_rss_mb": peak_rss_mb,
        "cache": {
            key: cache_after[key] - cache_before[key]
            for key in ("hits", "misses", "evictions")
        },
        "counters": counters,
        "checked_pages": len(checked),
        "wrong_pages": wrong_pages,
        "stale": stale,
        "refresh_failures": refresh_failures,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
