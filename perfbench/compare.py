"""Layer-delta report between two benchmark records.

Usage::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are files holding the saved standard output of
``run.py`` (the record is the line before the result line).  The report
flags environment mismatches (machine, interpreter, SQLite, hash seed,
catalog size, input generator, workload, seed, configuration), then
prints every metric both records carry with its change, per-layer
metrics sorted by how far they moved, so a reader of two result files
can tell which layer moved without rerunning anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Stamp keys whose difference makes two records incomparable or, for
#: the seed, compares different inputs.
ENVIRONMENT = (
    "cpu_count", "python", "machine", "sqlite_version", "sqlite_journal",
    "sqlite_synchronous", "hash_seed", "catalog_size", "generator_sha256",
    "workload", "workload_seed",
)


def load(path: str) -> dict:
    """The last line of ``path`` that is a record (has a ``stamp``)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "stamp" in record:
            return record
    raise SystemExit(f"error: no benchmark record in {path}")


def directions() -> dict[str, str]:
    """Metric name -> "higher"/"lower" from BENCHMARK.json, if present."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    return {
        metric["name"]: metric["better"]
        for key in ("end_to_end", "per_layer")
        for metric in spec.get(key, ())
    }


def mismatches(old: dict, new: dict) -> list[str]:
    out = []
    for key in ENVIRONMENT:
        a, b = old["stamp"].get(key), new["stamp"].get(key)
        if a != b:
            out.append(f"{key}: {a} -> {b}")
    if old.get("trace") != new.get("trace"):
        out.append(f"trace: {old.get('trace')} -> {new.get('trace')}")
    if old.get("config") != new.get("config"):
        out.append(f"config: {old.get('config')} -> {new.get('config')}")
    return out


def verdict(name: str, change: float, better: dict) -> str:
    direction = better.get(name)
    if change == 0 or direction is None:
        return ""
    improved = (change > 0) == (direction == "higher")
    return "better" if improved else "worse"


def section(title: str, old: dict, new: dict, better: dict,
            by_size: bool) -> None:
    names = [name for name in old if name in new]
    if not names:
        return
    rows = []
    for name in names:
        a, b = old[name]["value"], new[name]["value"]
        change = b - a
        relative = change / abs(a) if a else (0.0 if b == a else float("inf"))
        rows.append((name, a, b, change, relative, old[name]["unit"],
                     old[name].get("samples"), new[name].get("samples")))
    if by_size:
        rows.sort(key=lambda row: -abs(row[4]))
    print(f"\n{title}")
    print(f"  {'metric':<36} {'old':>12} {'new':>12} {'delta':>12} "
          f"{'rel':>8}  unit    n(old->new)")
    for name, a, b, change, relative, unit, n_old, n_new in rows:
        print(f"  {name:<36} {a:>12.4f} {b:>12.4f} {change:>+12.4f} "
              f"{relative:>+8.1%}  {unit:<7} {n_old}->{n_new} "
              f"{verdict(name, change, better)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    print(f"old: {old['stamp'].get('workload')} "
          f"seed={old['stamp'].get('workload_seed')} "
          f"git={old['stamp'].get('git_sha')} "
          f"src={old['stamp'].get('src_sha256', '')[:12]}")
    print(f"new: {new['stamp'].get('workload')} "
          f"seed={new['stamp'].get('workload_seed')} "
          f"git={new['stamp'].get('git_sha')} "
          f"src={new['stamp'].get('src_sha256', '')[:12]}")
    problems = mismatches(old, new)
    if problems:
        print("ENVIRONMENT MISMATCH (deltas may not be the code's):")
        for problem in problems:
            print(f"  {problem}")
    else:
        print("environment: identical")
    if old["stamp"].get("src_sha256") == new["stamp"].get("src_sha256"):
        print("program source: identical" + (
            "" if problems else " (so every delta is run-to-run noise)"
        ))
    for record in (old, new):
        if not record.get("correct", False):
            print(f"WARNING: a record is not correct: {record.get('checks')}")
    better = directions()
    section("end to end", old.get("end_to_end", {}),
            new.get("end_to_end", {}), better, by_size=False)
    section("per layer (largest relative move first)",
            old.get("per_layer", {}), new.get("per_layer", {}), better,
            by_size=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
