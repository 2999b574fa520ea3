#!/usr/bin/env python3
"""Continuous perf-regression sentinel over the BENCH_*.json outputs.

The benches emit standardized JSON (see bench/bench_output.hpp: every file
carries schema_version / bench / timestamp). This script maintains a
committed append-only ledger of those results under bench/history/ --
one JSON-lines file per bench series -- and gates CI against it:

  append  -- flatten BENCH_*.json files into ledger entries
  check   -- compare fresh BENCH_*.json files against the rolling baseline
             (median of the last N ledger entries per metric); exit 1 when
             any gated metric regressed beyond the noise tolerance
  report  -- markdown trend report of every series in the ledger
  self-test -- end-to-end sanity: a synthetic 10% regression MUST fail and
             an in-tolerance wobble MUST pass; exit 1 otherwise

Entries are partitioned by machine tag ("<AEQP_BENCH_MACHINE>-<cores>c")
and smoke-mode runs go to a "<bench>-smoke" series, so an entry is gated
only against history from the same core count and workload size.

Only metrics with a known "better" direction are gated (throughputs up,
latencies/overheads/exponents down); everything else is recorded and
reported but never fails the build. The tolerance default (5%) absorbs
machine noise; the rolling median absorbs single-run outliers.

Stdlib only -- no pip dependencies.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

DEFAULT_LEDGER = Path("bench/history")
DEFAULT_WINDOW = 5
DEFAULT_TOLERANCE = 0.05


def machine_tag(hardware_threads=None) -> str:
    """Ledger entries are only comparable within one environment: absolute
    rates differ several-fold between a laptop, a CI runner, and a cluster
    node, and between core counts of one machine class. Entries carry this
    tag -- AEQP_BENCH_MACHINE (set in CI, default "local") plus the
    envelope's core count, e.g. "local-4c" -- and `check` gates only
    against history from the same tag."""
    import os

    machine = os.environ.get("AEQP_BENCH_MACHINE", "local")
    if hardware_threads is None:
        return machine  # pre-core-count envelope
    return f"{machine}-{int(hardware_threads)}c"

# Keys whose subtree is diagnostic payload or run context, not a comparable
# metric.
SKIP_KEYS = {"schema_version", "timestamp", "hardware_threads", "smoke",
             "profile", "samples"}

# Substring -> direction. "up": larger is better; "down": smaller is
# better. Metrics matching neither are tracked but not gated.
DIRECTION_RULES = [
    ("per_second", "up"),
    ("per_atom", None),  # workload descriptor, not a rate
    ("speedup", "up"),
    ("saving", "up"),
    ("_hits", "up"),
    ("latency_seconds", "down"),
    ("latency_iterations", None),  # fault-injection count, not perf
    ("wall_seconds", "down"),
    ("_seconds", "down"),
    ("overhead", "down"),
    ("exponent", "down"),  # memory scaling exponent: growth is the regression
    ("max_diff", None),  # correctness rail, asserted by the bench itself
]


def direction_of(metric: str) -> str | None:
    low = metric.lower()
    for needle, direction in DIRECTION_RULES:
        if needle in low:
            return direction
    return None


def flatten(node, prefix="", out=None):
    """Flatten numeric leaves into {"a/b/c": value}. Lists of objects that
    carry a "name" field (e.g. the memory bench's gauges) key by that name;
    other lists are skipped (per-point sweep tables live in the raw JSON)."""
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if key in SKIP_KEYS:
                continue
            path = f"{prefix}/{key}" if prefix else key
            flatten(value, path, out)
    elif isinstance(node, list):
        for item in node:
            if not isinstance(item, dict):
                continue
            # Self-labelling rows (gauges carry "name"): key the row by its
            # label so each becomes a stable metric path.
            if "name" in item:
                flatten(
                    {k: v for k, v in item.items() if k != "name"},
                    f"{prefix}/{item['name']}",
                    out,
                )
    elif isinstance(node, bool):
        pass
    elif isinstance(node, (int, float)) and math.isfinite(node):
        out[prefix] = float(node)
    return out


def load_bench(path: Path):
    """Return (series, entry). A smoke-mode run ("smoke": true) gets a
    series of its own, "<bench>-smoke": its workload is a fraction of the
    full one, so its rates never gate (or are gated by) full runs."""
    with open(path) as f:
        data = json.load(f)
    name = data.get("bench")
    if not name:
        raise ValueError(f"{path}: missing 'bench' field (not a BENCH_*.json?)")
    if data.get("smoke") is True:
        name += "-smoke"
    entry = {
        "timestamp": data.get("timestamp", ""),
        "machine": machine_tag(data.get("hardware_threads")),
        "metrics": flatten(data),
    }
    return name, entry


def ledger_file(ledger: Path, bench: str) -> Path:
    return ledger / f"{bench}.jsonl"


def read_ledger(ledger: Path, bench: str):
    path = ledger_file(ledger, bench)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def cmd_append(args) -> int:
    ledger = Path(args.ledger)
    ledger.mkdir(parents=True, exist_ok=True)
    for file in args.files:
        bench, entry = load_bench(Path(file))
        with open(ledger_file(ledger, bench), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended {file} -> {ledger_file(ledger, bench)} "
              f"({len(entry['metrics'])} metrics)")
    return 0


def check_entry(bench, entry, history, window, tolerance):
    """Return (regressions, lines) comparing one fresh entry to history.

    The effective tolerance per metric is max(tolerance, 3 x the relative
    median-absolute-deviation of its history): deterministic metrics
    (byte counts, scaling exponents) stay gated at the base tolerance,
    while short smoke-workload timings -- which wobble tens of percent on
    shared machines -- self-calibrate from their own observed noise
    instead of producing false alarms.
    """
    regressions = []
    lines = []
    recent = history[-window:]
    for metric, value in sorted(entry["metrics"].items()):
        direction = direction_of(metric)
        past = [
            e["metrics"][metric]
            for e in recent
            if metric in e.get("metrics", {})
        ]
        if not past:
            lines.append(f"  {metric}: {value:g} (new metric, no baseline)")
            continue
        baseline = statistics.median(past)
        if direction is None or baseline == 0:
            continue
        mad = statistics.median(abs(v - baseline) for v in past)
        effective_tol = max(tolerance, 3.0 * mad / abs(baseline))
        delta = (value - baseline) / abs(baseline)
        worse = -delta if direction == "up" else delta
        tag = "ok"
        if worse > effective_tol:
            tag = "REGRESSION"
            regressions.append(
                f"{bench}:{metric}: {value:g} vs baseline {baseline:g} "
                f"({delta:+.1%}, tolerance {effective_tol:.0%}, "
                f"better={direction})"
            )
        lines.append(
            f"  {metric}: {value:g} vs {baseline:g} ({delta:+.1%}, "
            f"tol {effective_tol:.0%}) [{tag}]"
        )
    return regressions, lines


def cmd_check(args) -> int:
    ledger = Path(args.ledger)
    all_regressions = []
    for file in args.files:
        bench, entry = load_bench(Path(file))
        tag = entry["machine"]
        history = [
            e
            for e in read_ledger(ledger, bench)
            if e.get("machine", "local") == tag
        ]
        if not history:
            # Empty-ledger seeding: a brand-new bench series has nothing to
            # gate against, but silently skipping it forever means the gate
            # never arms. Seed the ledger with this first entry (the next
            # check has a baseline) and pass.
            ledger.mkdir(parents=True, exist_ok=True)
            with open(ledger_file(ledger, bench), "a") as f:
                f.write(json.dumps(entry, sort_keys=True) + "\n")
            print(f"{bench}: no ledger history for machine '{tag}' -- "
                  f"seeded {ledger_file(ledger, bench)} with this run "
                  f"({len(entry['metrics'])} metrics); gating starts next run")
            continue
        regressions, lines = check_entry(
            bench, entry, history, args.window, args.tolerance
        )
        print(f"{bench}: checked against median of last "
              f"{min(args.window, len(history))} '{tag}' ledger entries")
        for line in lines:
            print(line)
        all_regressions.extend(regressions)
    if all_regressions:
        print("\nPERF REGRESSIONS DETECTED:")
        for r in all_regressions:
            print(f"  {r}")
        return 1
    print("\nno regressions beyond tolerance")
    return 0


def sparkline(values) -> str:
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    if hi == lo:
        return blocks[3] * len(values)
    return "".join(
        blocks[int((v - lo) / (hi - lo) * (len(blocks) - 1))] for v in values
    )


def cmd_report(args) -> int:
    ledger = Path(args.ledger)
    files = sorted(ledger.glob("*.jsonl")) if ledger.is_dir() else []
    if not files:
        print(f"no ledger series under {ledger}")
        return 0
    print("# Bench trend report\n")
    for path in files:
        bench = path.stem
        history = read_ledger(ledger, bench)
        if not history:
            continue
        print(f"## {bench} ({len(history)} entries)\n")
        print("| metric | latest | baseline | delta | trend |")
        print("|---|---|---|---|---|")
        latest = history[-1]["metrics"]
        for metric in sorted(latest):
            series = [
                e["metrics"][metric]
                for e in history
                if metric in e.get("metrics", {})
            ]
            prior = series[:-1][-args.window:]
            baseline = statistics.median(prior) if prior else series[-1]
            delta = (
                (series[-1] - baseline) / abs(baseline)
                if baseline
                else 0.0
            )
            print(
                f"| {metric} | {series[-1]:g} | {baseline:g} "
                f"| {delta:+.1%} | {sparkline(series[-12:])} |"
            )
        print()
    return 0


def cmd_self_test(args) -> int:
    """The sentinel's own regression test: seed a synthetic ledger, then a
    10% throughput drop must FAIL and a 1% wobble must PASS; an entry from
    another core count or a smoke run must never be gated against it."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ledger = tmp / "history"
        ledger.mkdir()
        with open(ledger / "synthetic.jsonl", "w") as f:
            for v in (100.0, 101.0, 99.0, 100.5, 100.0):
                f.write(json.dumps({
                    "timestamp": "",
                    "machine": machine_tag(),
                    "metrics": {"points_per_second/kernel": v,
                                "wall_seconds": 10.0},
                }) + "\n")

        def candidate(pps, wall):
            path = tmp / "BENCH_synthetic.json"
            path.write_text(json.dumps({
                "schema_version": 1,
                "bench": "synthetic",
                "timestamp": "",
                "points_per_second": {"kernel": pps},
                "wall_seconds": wall,
            }))
            ns = argparse.Namespace(
                ledger=str(ledger), files=[str(path)],
                window=DEFAULT_WINDOW, tolerance=DEFAULT_TOLERANCE,
            )
            return cmd_check(ns)

        print("-- self-test: 10% throughput regression (must fail) --")
        if candidate(90.0, 10.0) == 0:
            failures.append("10% throughput drop was NOT flagged")
        print("-- self-test: 10% wall-clock regression (must fail) --")
        if candidate(100.0, 11.0) == 0:
            failures.append("10% wall-clock increase was NOT flagged")
        print("-- self-test: 1% wobble (must pass) --")
        if candidate(99.0, 10.05) != 0:
            failures.append("1% wobble was flagged as a regression")
        print("-- self-test: improvement (must pass) --")
        if candidate(120.0, 8.0) != 0:
            failures.append("an improvement was flagged as a regression")

        # Empty-ledger seeding: the FIRST check of a new series must pass
        # and write the seed entry; a 10% regression against that seed on
        # the SECOND check must then fail (single-entry history has zero
        # MAD, so the base tolerance gates it).
        fresh = tmp / "fresh-history"

        def fresh_candidate(pps):
            path = tmp / "BENCH_fresh.json"
            path.write_text(json.dumps({
                "schema_version": 1,
                "bench": "fresh",
                "timestamp": "",
                "points_per_second": {"kernel": pps},
            }))
            ns = argparse.Namespace(
                ledger=str(fresh), files=[str(path)],
                window=DEFAULT_WINDOW, tolerance=DEFAULT_TOLERANCE,
            )
            return cmd_check(ns)

        print("-- self-test: empty ledger (must pass and seed) --")
        if fresh_candidate(100.0) != 0:
            failures.append("first check on an empty ledger did not pass")
        if not (fresh / "fresh.jsonl").exists():
            failures.append("first check on an empty ledger did not seed it")
        print("-- self-test: 10% regression against the seed (must fail) --")
        if fresh_candidate(90.0) == 0:
            failures.append("10% regression against the seeded entry "
                            "was NOT flagged")

        # Ledger partitions: an entry is gated only against history from
        # the same core count and the same workload size.
        parts = tmp / "partition-history"
        parts.mkdir()
        with open(parts / "part.jsonl", "w") as f:
            for v in (100.0, 101.0, 99.0):
                f.write(json.dumps({
                    "timestamp": "",
                    "machine": machine_tag(8),
                    "metrics": {"points_per_second/kernel": v},
                }) + "\n")

        def part_candidate(pps, threads, smoke):
            path = tmp / "BENCH_part.json"
            path.write_text(json.dumps({
                "schema_version": 2,
                "bench": "part",
                "timestamp": "",
                "hardware_threads": threads,
                "smoke": smoke,
                "points_per_second": {"kernel": pps},
            }))
            ns = argparse.Namespace(
                ledger=str(parts), files=[str(path)],
                window=DEFAULT_WINDOW, tolerance=DEFAULT_TOLERANCE,
            )
            return cmd_check(ns)

        print("-- self-test: 8-core baseline still gates 8 cores (must fail) --")
        if part_candidate(50.0, 8, False) == 0:
            failures.append("a 50% drop on the baseline's core count "
                            "was NOT flagged")
        print("-- self-test: 4-core entry vs 8-core baseline (must pass) --")
        if part_candidate(50.0, 4, False) != 0:
            failures.append("a 4-core entry was gated against the 8-core "
                            "baseline")
        print("-- self-test: smoke entry vs full baseline (must pass) --")
        if part_candidate(5.0, 8, True) != 0:
            failures.append("a smoke entry was gated against the full "
                            "baseline")
        if not (parts / "part-smoke.jsonl").exists():
            failures.append("a smoke entry did not seed its own series")

    if failures:
        print("\nSELF-TEST FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nself-test OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_files):
        p.add_argument("--ledger", default=str(DEFAULT_LEDGER),
                       help="ledger directory (default: bench/history)")
        p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                       help="rolling-baseline window (median of last N)")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="relative noise tolerance (default 0.05)")
        if with_files:
            p.add_argument("files", nargs="+", help="BENCH_*.json files")

    common(sub.add_parser("append", help="append results to the ledger"), True)
    common(sub.add_parser("check", help="gate results against the ledger"), True)
    common(sub.add_parser("report", help="markdown trend report"), False)
    common(sub.add_parser("self-test", help="verify the gate itself"), False)

    args = parser.parse_args(argv)
    return {
        "append": cmd_append,
        "check": cmd_check,
        "report": cmd_report,
        "self-test": cmd_self_test,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
