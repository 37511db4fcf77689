"""Benchmark of chevalley: time to a checked verdict, per workload.

    python3 bench/run.py --workload verify --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(child.py) that imports ``chevalley.cli`` and runs the workload's calls one
after another: a closed loop with one client, as a CLI user runs it.
Repetitions continue until ``--seconds`` is used up (at least three).

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions): ``wall_s``, ``setup_s`` and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced repetitions alternate, and the last
line reports the per-layer metrics of the traced ones (see NOTES.md).
Failed operations are counted in ``attempted``/``failed`` either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
SPANS_DIR = ROOT / ".bench_out"

MIN_REPS = 3
CHILD_TIMEOUT_S = 120
# One BLAS thread: with the library default (one per core), about one fresh
# process in five stalled ~1 s inside its first BLAS calls on a 2-core host.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SELF_TIMED = [
    "cli.main",
    "combinatorics.enumerate_partitions",
    "bruhat.build_graph", "bruhat.incidence_matrix",
    "bruhat.is_strongly_connected",
    "symfunc.rietsch_eigenvector",
    "spectral.spectral_report", "spectral.eigen_residual",
    "spectral.property_o_check", "spectral.spectrum_closed_form",
    "spectral.c1_operator", "spectral.principal_eigenvalue",
    "galkin.verify_galkin", "galkin.check_second_proof_lemma",
    "galkin.check_concavity_monotonicity",
]
CALL_COUNTED = [
    "combinatorics.enumerate_partitions", "bruhat.build_graph",
    "symfunc.rietsch_eigenvector", "spectral.eigen_residual",
    "spectral.spectrum_closed_form",
]
WORK_COUNTS = {"bruhat.edges": "count", "bruhat.nnz": "count",
               "symfunc.jt_determinants": "count",
               "spectral.power_iterations": "count",
               "spectral.matvec_flops": "flop",
               "galkin.grid_points": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTED})
    units.update(WORK_COUNTS)
    units.update({f"{module}.self_s": "s" for module in TRACED})
    units.update(traced_wall_s="s", trace_overhead_ratio="ratio",
                 trace_spans="count")
    return units


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["CHEVALLEY_WORKERS"] = "1"
    return env


def commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chevalley").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class ChildError(RuntimeError):
    pass


def spawn(spec: dict, env: dict) -> tuple[float, dict]:
    """Run one child; return (its setup time, its result)."""
    spawned_at = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result["imported_at"] - spawned_at, result


def per_layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics from the traced repetitions' summaries."""
    first = traced[0]["trace"]
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = statistics.median(
            r["trace"]["self"].get(name, [0.0, 0])[0] for r in traced)
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = first["self"].get(name, [0.0, 0])[1]
    for name in WORK_COUNTS:
        metrics[name] = first["counts"].get(name, 0)
    for module in TRACED:
        metrics[f"{module}.self_s"] = statistics.median(
            sum(v[0] for name, v in r["trace"]["self"].items()
                if name.split(".")[0] == module) for r in traced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics.update(traced_wall_s=traced_wall,
                   trace_overhead_ratio=traced_wall / untraced_wall,
                   trace_spans=first["spans"])
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chevalley" / "cli.py").is_file():
        print(f"error: no chevalley sources under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2

    env = pinned_env()
    inputs = workloads.instances(args.workload, args.seed)
    spec = {"workload": args.workload, "inputs": inputs, "traced": False,
            "spans_out": str(SPANS_DIR / f"spans-{args.workload}.json")}
    try:
        # Untimed: compiles bytecode on a fresh checkout, loads the caches.
        _, warm = spawn({"workload": None}, env)
        started = time.monotonic()
        deadline = started + args.seconds
        reps: list[dict] = []
        setups: list[float] = []
        while True:
            traced = args.trace == 1 and len(reps) % 2 == 1
            rep_start = time.monotonic()
            setup, result = spawn(dict(spec, traced=traced), env)
            # An import-only process per repetition doubles the set-up
            # samples at a small share of the run's time.
            probe, _ = spawn({"workload": None}, env)
            reps.append(result)
            setups += [setup, probe]
            took = time.monotonic() - rep_start
            enough = len(reps) >= MIN_REPS + (args.trace == 1)
            if enough and time.monotonic() + took > deadline:
                break
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failed"]]
    plain = [r for r in reps if "trace" not in r]
    traced_reps = [r for r in reps if "trace" in r]
    wall = statistics.median(r["wall_s"] for r in plain)
    e2e = {"wall_s": wall,
           "setup_s": statistics.median(setups),
           "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024}

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **warm["versions"],
        **{var: env[var] for var in THREAD_VARS},
        "CHEVALLEY_WORKERS": env["CHEVALLEY_WORKERS"],
        "commit": commit(), "src_sha256": source_digest(),
        "reps": len(reps), "traced_reps": len(traced_reps),
        "wall_samples": [round(r["wall_s"], 4) for r in plain],
        "setup_samples": [round(s, 4) for s in setups],
        "measured_s": round(time.monotonic() - started, 3)}}))
    print(f"{args.workload}: " + "  ".join(
        f"{k}={v:.4g} {END_TO_END[k]}" for k, v in e2e.items())
        + f"  failed_ratio={len(failures) / attempted:.4g} ratio "
        f"({len(failures)}/{attempted})  n={len(plain)}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")

    if args.trace == 1:
        units = per_layer_units()
        values = per_layer_metrics(traced_reps, wall)
        first = traced_reps[0]["trace"]
        if first["missing"]:
            print(f"not traced (absent from the package): {', '.join(first['missing'])}")
        if first["counts"].get("tracer.hook_errors"):
            print(f"counts not readable from {first['counts']['tracer.hook_errors']} "
                  "calls (changed return types); those counts are low")
    else:
        units, values = END_TO_END, e2e
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
