#!/usr/bin/env python3
"""Smoke-run every benchmark binary and validate its JSON output.

Each bench is run in its cheapest configuration (--quick where the bench
supports it, explicit tiny dimensions otherwise) with --json pointed at
an output directory, then the JSON is parsed and checked for the
expected schema string and top-level keys. CI uploads the JSON files as
artifacts, so this script doubles as the generator of those artifacts.

Usage:
  scripts/bench_smoke.py [--build-dir BUILD] [--out-dir OUT]
                         [--only NAME[,NAME...]]

Exits non-zero if any bench fails to run, writes unparsable JSON, or
omits an expected key.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

# name -> (extra argv before --json, expected "schema" value or None,
#          expected top-level keys).
# A name is the benchmark *mode*, not necessarily a binary: by default the
# binary is build/bench/<name>, but an entry may carry a "binary" override
# so one executable can appear under several modes (bench_dslash serves
# both the overlap and the SIMD lane experiments). An entry may also carry
# an "elements" spec — {list_key: [required subkeys]} — checked against
# every record of the named top-level array.
BENCHES = {
    "bench_ablation": (
        ["--quick"],
        "lqcd.bench.ablation/1",
        ["projection_speedup", "multishift_speedup", "eo"],
    ),
    "bench_chaos": (
        ["--quick"],
        "lqcd.bench.chaos/1",
        ["seeds", "completed", "invariant_failures", "all_invariants_pass"],
    ),
    "bench_comm": (
        ["--quick"],
        "lqcd.bench.comm/1",
        ["achieved_halo_bytes_per_exchange", "model_hidden_fraction",
         "overlap_measured"],
    ),
    "bench_dslash": (
        ["--overlap", "--quick"],
        "lqcd.bench.dslash_overlap/1",
        ["tolerance_pct", "all_within_tolerance", "grids"],
    ),
    "bench_dslash_simd": (
        ["--simd", "--quick"],
        "lqcd.bench.dslash_simd/1",
        ["lattice", "scalar_gflops", "best_float_speedup", "all_bitwise",
         "pass", "lanes"],
        {"binary": "bench_dslash",
         "elements": {"lanes": ["precision", "width", "gflops", "speedup",
                                "bitwise"]}},
    ),
    "bench_ensemble": (
        ["--quick"],
        "lqcd.bench.ensemble/1",
        ["heatbath", "hmc"],
    ),
    "bench_mg": (
        ["--quick"],
        None,
        ["experiment", "sweep", "tol"],
    ),
    "bench_mixed_precision": (
        ["--quick"],
        "lqcd.bench.mixed_precision/1",
        ["kappas"],
    ),
    "bench_precision": (
        ["--quick"],
        "lqcd.bench.precision/1",
        ["experiment", "measured", "solver", "model", "mg", "gates",
         "pass"],
        {"elements": {"gates": ["name", "pass", "detail"]}},
    ),
    "bench_resilience": (
        ["--L", "4", "--T", "8", "--reps", "2"],
        None,
        ["experiment", "overhead_pct_checksummed",
         "bit_identical_under_faults", "checkpoint_mb"],
    ),
    "bench_sap": (
        ["--quick"],
        "lqcd.bench.sap/1",
        ["plain_gcr_iters", "sap"],
    ),
    "bench_serve": (
        ["--quick"],
        "lqcd.bench.serve/1",
        ["sweep", "campaign"],
    ),
    "bench_solvers": (
        ["--quick"],
        "lqcd.bench.solvers/1",
        ["kappas"],
    ),
    "bench_spectroscopy": (
        ["--quick"],
        "lqcd.bench.spectroscopy/1",
        ["m_pi", "m_rho", "m_nucleon", "solve_iterations"],
    ),
    "bench_strong_scaling": (
        ["--quick"],
        "lqcd.bench.strong_scaling/1",
        ["machine", "points"],
    ),
    "bench_telemetry": (
        ["--L", "4", "--T", "4", "--reps", "4", "--applies", "2"],
        "lqcd.bench.telemetry/1",
        ["overhead_pct", "achieved_halo_bytes_per_exchange"],
    ),
    "bench_transport": (
        ["--quick", "--np", "2"],
        "lqcd.bench.transport/1",
        ["transport", "ranks", "alpha_us", "beta_gbs", "barrier_us",
         "allreduce_us", "allreduce_exact", "exchange", "dslash"],
        {"elements": {"pingpong": ["bytes", "t_us", "bw_gbs"]}},
    ),
    "bench_weak_scaling": (
        ["--quick"],
        "lqcd.bench.weak_scaling/1",
        ["machine", "points"],
    ),
}

TIMEOUT_S = 300


def run_one(name: str, build_dir: Path, out_dir: Path) -> list[str]:
    """Run one bench; return a list of failure messages (empty = pass)."""
    extra, schema, keys = BENCHES[name][:3]
    opts = BENCHES[name][3] if len(BENCHES[name]) > 3 else {}
    exe = build_dir / "bench" / opts.get("binary", name)
    if not exe.exists():
        return [f"binary not found: {exe}"]
    json_path = out_dir / f"{name}.json"
    cmd = [str(exe), *extra, "--json", str(json_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"timed out after {TIMEOUT_S}s"]
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        return [f"exit code {proc.returncode}"] + [f"  | {l}" for l in tail]
    if not json_path.exists():
        return [f"did not write {json_path}"]
    try:
        doc = json.loads(json_path.read_text())
    except json.JSONDecodeError as e:
        return [f"invalid JSON: {e}"]
    errs = []
    if schema is not None and doc.get("schema") != schema:
        errs.append(f"schema mismatch: expected {schema!r}, "
                    f"got {doc.get('schema')!r}")
    for k in keys:
        if k not in doc:
            errs.append(f"missing key: {k!r}")
    for list_key, subkeys in opts.get("elements", {}).items():
        records = doc.get(list_key)
        if not isinstance(records, list) or not records:
            errs.append(f"key {list_key!r} is not a non-empty array")
            continue
        for i, rec in enumerate(records):
            missing = [k for k in subkeys
                       if not isinstance(rec, dict) or k not in rec]
            if missing:
                errs.append(f"{list_key}[{i}] missing: {', '.join(missing)}")
    return errs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build", type=Path)
    ap.add_argument("--out-dir", default="bench-json", type=Path)
    ap.add_argument("--only", default="",
                    help="comma-separated bench names to run")
    args = ap.parse_args()

    names = sorted(BENCHES)
    if args.only:
        names = [n for n in args.only.split(",") if n]
        unknown = [n for n in names if n not in BENCHES]
        if unknown:
            print(f"unknown bench(es): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in names:
        t0 = time.monotonic()
        errs = run_one(name, args.build_dir, args.out_dir)
        dt = time.monotonic() - t0
        status = "ok" if not errs else "FAIL"
        print(f"{name:28s} {status:4s} {dt:7.1f}s")
        for e in errs:
            print(f"    {e}")
        failures += bool(errs)

    print(f"\n{len(names) - failures}/{len(names)} benches passed; "
          f"JSON in {args.out_dir}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
