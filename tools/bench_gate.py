#!/usr/bin/env python3
"""Perf-regression gate over the checked-in BENCH_*.json baselines.

Compares a freshly generated bench report against a committed baseline:
rows are matched on a key tuple (default: switches/shards/threads, the
fleet harness geometry), numeric fields must agree within a relative
tolerance, and string fields (fingerprints) must match exactly. Fields
that depend on the host rather than the modelled system — wall clock,
steal counts, scheduling diagnostics — are ignored.

The fleet numbers are virtual-time deterministic, so the default
tolerance only absorbs float printing (%.6g) noise; pass --tolerance to
loosen the gate for wall-clock benches.

Row identity defaults to a per-benchmark profile (PROFILES below;
e.g. the chaos harness keys on mode/switches/shards/threads), falling
back to the fleet geometry; --key overrides either. A profile may also
name host wall-clock fields (PROFILE_IGNORE, shell-style patterns),
which are skipped on top of --ignore, and may let rows of different
shapes share one key (NULLABLE_KEY_PROFILES: a key field a row does not
carry reads as null).

    tools/bench_gate.py BASELINE FRESH [--key k1,k2,...]
                        [--tolerance 0.02] [--ignore f1,f2,...]

Exit status: 0 = within tolerance, 1 = drift or structural mismatch,
2 = usage/IO error. Baseline rows missing from the fresh report are
fine (smoke runs sweep a subset of the committed full sweep); fresh
rows missing from the baseline fail — they mean the sweep changed and
the baseline must be regenerated and committed alongside.
"""

import argparse
import fnmatch
import json
import sys

DEFAULT_KEY = ("switches", "shards", "threads")
DEFAULT_IGNORE = ("wall_ms", "wall_rule_ops_per_s", "steals",
                  "starved_pumps")

# Per-benchmark row-identity overrides, applied when --key is not passed:
# the chaos harness sweeps fault modes over one geometry, so rows are
# identified by mode first.
PROFILES = {
    "chaos_recovery": ("mode", "switches", "shards", "threads"),
    "fig11_cacheflow": ("load", "backend"),
    "fig9_parallel": ("config", "compiler"),
    "fig10_sequential": ("config", "compiler"),
    # Fleet rows carry journal/crash_p; the fast-path overhead and recovery
    # cost summaries carry neither and read them as null.
    "recovery_latency": ("part", "journal", "crash_p"),
    # Scheduler rows (star) carry capacity/occupancy_target, the pipeline
    # row carries stages; each reads the other's key fields as null.
    "tcam_scheduler": ("workload", "capacity", "occupancy_target", "stages"),
}
NULLABLE_KEY_PROFILES = {"recovery_latency", "tcam_scheduler"}

# Per-benchmark default tolerance (when --tolerance is not passed): the
# scheduler's chains are integer counts, so one extra move must fail.
PROFILE_TOLERANCE = {"tcam_scheduler": 0.0}

# Per-benchmark wall-clock fields: fig11's firmware_* columns time the DAG
# firmware on the host; its swap and TCAM-latency columns are modelled. The
# composition figures (fig9/fig10) also time the compilers on the host, and
# their total_* columns add that wall clock to the modelled tcam_*/channel_*.
_FIRMWARE_MS = ("firmware_med_ms", "firmware_p10_ms", "firmware_p90_ms")
_COMPOSITION_WALL_MS = _FIRMWARE_MS + (
    "compile_med_ms", "compile_p10_ms", "compile_p90_ms",
    "total_med_ms", "total_p10_ms", "total_p90_ms")
PROFILE_IGNORE = {
    "fig11_cacheflow": _FIRMWARE_MS,
    "fig9_parallel": _COMPOSITION_WALL_MS,
    "fig10_sequential": _COMPOSITION_WALL_MS,
    # The firmware CPU time and the overheads derived from it are host wall
    # clock; crash counts, undone writes and recovery latency are modelled.
    "recovery_latency": ("firmware_cpu_ms", "*_overhead_pct"),
    # The modelled columns are the chains (chain_ops, total_moves,
    # max_chain), occupancy and the identical/layout_valid verdicts.
    "tcam_scheduler": ("*_ms", "speedup", "threads_effective"),
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def row_key(row, key_fields, path, nullable=False):
    if nullable:
        return tuple(row.get(k) for k in key_fields)
    try:
        return tuple(row[k] for k in key_fields)
    except KeyError as e:
        print(f"bench_gate: {path}: row missing key field {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_*.json")
    ap.add_argument("fresh", help="just-generated report to validate")
    ap.add_argument("--key", default=None,
                    help="comma-separated row-identity fields (default: "
                         "per-benchmark profile, else switches/shards/threads)")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="max relative drift for numeric fields (default: "
                         "per-benchmark profile, else 0.02)")
    ap.add_argument("--ignore", default=",".join(DEFAULT_IGNORE),
                    help="comma-separated fields excluded from comparison")
    args = ap.parse_args()

    ignored = set(f for f in args.ignore.split(",") if f)

    def is_ignored(field):
        return any(fnmatch.fnmatchcase(field, pat) for pat in ignored)

    base = load(args.baseline)
    fresh = load(args.fresh)

    if args.key is not None:
        key_fields = tuple(k for k in args.key.split(",") if k)
    else:
        key_fields = PROFILES.get(base.get("benchmark"), DEFAULT_KEY)
    ignored |= set(PROFILE_IGNORE.get(base.get("benchmark"), ()))
    nullable = args.key is None and base.get("benchmark") in NULLABLE_KEY_PROFILES
    if args.tolerance is None:
        args.tolerance = PROFILE_TOLERANCE.get(base.get("benchmark"), 0.02)

    failures = []

    if base.get("benchmark") != fresh.get("benchmark"):
        failures.append(f"benchmark name differs: {base.get('benchmark')!r} "
                        f"vs {fresh.get('benchmark')!r}")
    if base.get("schema_version") != fresh.get("schema_version"):
        failures.append(f"schema_version differs: {base.get('schema_version')}"
                        f" vs {fresh.get('schema_version')}")
    prov = fresh.get("provenance")
    if not isinstance(prov, dict) or "git_sha" not in prov:
        failures.append("fresh report lacks a provenance object with git_sha")

    base_rows = {row_key(r, key_fields, args.baseline, nullable): r
                 for r in base.get("rows", [])}
    fresh_rows = fresh.get("rows", [])
    if not fresh_rows:
        failures.append("fresh report has no rows")

    compared = 0
    for row in fresh_rows:
        key = row_key(row, key_fields, args.fresh, nullable)
        tag = "/".join(f"{k}={v:g}" if isinstance(v, (int, float)) else
                       f"{k}={v}" for k, v in zip(key_fields, key))
        ref = base_rows.get(key)
        if ref is None:
            failures.append(f"[{tag}] not in baseline — sweep changed; "
                            f"regenerate and commit {args.baseline}")
            continue
        for field in sorted(set(ref) & set(row)):
            if is_ignored(field) or field in key_fields:
                continue
            want, got = ref[field], row[field]
            if isinstance(want, (int, float)) and isinstance(got, (int, float)):
                scale = max(abs(want), abs(got))
                drift = abs(got - want) / scale if scale > 0 else 0.0
                if drift > args.tolerance:
                    failures.append(
                        f"[{tag}] {field}: {want:g} -> {got:g} "
                        f"({drift:+.1%} > {args.tolerance:.1%})")
            elif want != got:
                failures.append(f"[{tag}] {field}: {want!r} -> {got!r}")
        missing = {f for f in set(ref) - set(row) if not is_ignored(f)}
        if missing:
            failures.append(f"[{tag}] fields dropped: {sorted(missing)}")
        compared += 1

    if failures:
        print(f"bench_gate: {args.fresh} vs {args.baseline}: "
              f"{len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    sha = prov.get("git_sha", "?") if isinstance(prov, dict) else "?"
    print(f"bench_gate: {compared} row(s) within {args.tolerance:.1%} of "
          f"{args.baseline} (fresh build {sha})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
