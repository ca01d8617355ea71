#!/usr/bin/env python3
"""Origin-of-mass benchmark: build from source, run one workload, report.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
lqcd library and the benchmark program into .bench_build/perfbench (later
calls rebuild only what changed); build output goes to stderr. The program
then runs the workload in a fresh process and its standard output passes
through unchanged, so the last line is the JSON summary
{"correct", "attempted", "failed", "metrics"}. The full result document,
with provenance, is written to .bench_build/results/.

Workloads (all quenched beta 5.9, tol 1e-9, inputs generated from --seed):
  spectrum     8^3x16 ensemble, 3 configs, eo_cg at kappa 0.150
  spectrum_mg  the same ensemble, 2 configs, multigrid at kappa 0.150
  campaign     CampaignService over 3 configs x 2 kappas x 2 sources on 8^4
  dist_solve   12 columns on a 4-rank virtual cluster, kappa 0.140
--trace 1 reports the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no lqcd sources under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / target


def source_id():
    """git commit when the checkout is a repository, else a digest of the
    library and benchmark sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "src",
                                    "perfbench"], cwd=ROOT,
                                   capture_output=True, text=True).stdout
            return "git:" + r.stdout.strip() + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    if a.selftest:
        sys.exit(subprocess.run([str(build("perfbench_tests"))],
                                cwd=ROOT).returncode)
    if not a.workload:
        fail("--workload is required")

    exe = build("perfbench")
    results = BUILD_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result = results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", str(BUILD_ROOT / "work"),
           "--reference", str(HERE / "reference.json"),
           "--result", str(result), "--source-id", source_id()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
