"""Workload inputs drawn from a seed, and the correctness gate on outputs.

Pure Python: nothing here imports chevalley, numpy or scipy, so the parent
process stays light and the references stay independent of the package.

Seed 0 gives the canonical instance lists.  Any other seed draws instances
of the same size from the pools described beside each workload, so a claim
made on seed 0 can be rechecked on held-out seeds.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("verify", "sweep", "matrix-thin", "inequalities")

REL_TOL = 1e-8  # four-route agreement, residual and matrix-route gate

# Canonical inputs (seed 0).
VERIFY_CANONICAL = [(6, 12), (2, 40), (3, 16), (5, 11), (1, 30)]
SWEEP_N_MAX = 16
MATRIX_THIN_N = [40, 60, 80, 100, 120, 140, 160]
INEQUALITIES_N_MAX = 400


def instances(workload: str, seed: int) -> list:
    """The inputs one workload pass runs, as JSON-serialisable values.

    verify       [k, n] pairs for `verify --format json`.  Other seeds keep
                 the Gr(6,12) anchor (~65% of the work; no other (k,n) has
                 comparable cost) plus Gr(3,16) and Gr(5,11), draw Gr(2,n)
                 with n in 39..41 and a projective space Gr(1,n) or
                 Gr(n-1,n) with n in 28..32, and shuffle the order.
    sweep        [n_max].  Always 16: its only size knob is n-max, and 15 or
                 17 halve or double the work, so every seed runs the same.
    matrix-thin  n values for Gr(2,n); other seeds move each n by -1, 0 or +1.
    inequalities [n_max]; other seeds draw n-max in 398..402.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        if seed == 0:
            return [list(p) for p in VERIFY_CANONICAL]
        n_proj = rng.randint(28, 32)
        k_proj = rng.choice([1, n_proj - 1])
        pairs = [[6, 12], [2, rng.randint(39, 41)], [3, 16], [5, 11],
                 [k_proj, n_proj]]
        rng.shuffle(pairs)
        return pairs
    if workload == "sweep":
        return [SWEEP_N_MAX]
    if workload == "matrix-thin":
        if seed == 0:
            return list(MATRIX_THIN_N)
        return [n + rng.randint(-1, 1) for n in MATRIX_THIN_N]
    if seed == 0:
        return [INEQUALITIES_N_MAX]
    return [INEQUALITIES_N_MAX + rng.randint(-2, 2)]


def operations(workload: str, inputs: list) -> int:
    """Operations one pass attempts: instance verdicts or inequality checks."""
    if workload == "sweep":
        return sum(n - 1 for n in range(2, inputs[0] + 1))
    if workload == "inequalities":
        return inequality_count(inputs[0])
    return len(inputs)


# -- references computed here, independently of the package -----------------

def delta0_reference(k: int, n: int) -> float:
    return n * math.sin(math.pi * k / n) / math.sin(math.pi / n)


def expected_verdict(k: int, n: int) -> str:
    return "holds_equality" if k in (1, n - 1) else "holds_strict"


def inequality_count(n_max: int) -> int:
    """Checks `inequalities --n-max N` runs: second-proof lemma for n in
    6..N, the k=2 inequality for n in 4..N, boundary equality for k in
    3..12, limit and concavity/monotonicity for k in 2..12."""
    return (n_max - 5) + (n_max - 3) + 10 + 11 + 11


def _close(value, ref: float, tol: float = REL_TOL) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value - ref) <= tol * max(1.0, abs(ref)))


def _check_instance(k: int, n: int, delta0: dict, bound, verdict) -> list[str]:
    problems = [f"Gr({k},{n}) delta0[{route}]={value!r} != {delta0_reference(k, n)!r}"
                for route, value in delta0.items()
                if not _close(value, delta0_reference(k, n))]
    if bound != k * (n - k) + 1:
        problems.append(f"Gr({k},{n}) bound={bound!r} != {k * (n - k) + 1}")
    if verdict != expected_verdict(k, n):
        problems.append(f"Gr({k},{n}) verdict={verdict!r} "
                        f"!= {expected_verdict(k, n)!r}")
    return problems


def check_verify(k: int, n: int, exit_code: int, stdout: str) -> list[str]:
    """Failed operations of one `verify --format json` call (zero or one)."""
    if exit_code != 0:
        return [f"Gr({k},{n}) exit code {exit_code}"]
    try:
        rep = json.loads(stdout)
        problems = _check_instance(k, n, rep["delta0"], rep["bound"],
                                   rep["verdict"])
        if set(rep["delta0"]) != {"matrix", "schur", "sine", "cosine"}:
            problems.append(f"routes {sorted(rep['delta0'])}")
        header = (rep["k"], rep["n"], rep["dim"], rep["rank"])
        if header != (k, n, k * (n - k), math.comb(n, k)):
            problems.append(f"k, n, dim, rank = {header}")
        res = rep["max_eigen_residual"]
        if not (isinstance(res, float) and res < REL_TOL):
            problems.append(f"max_eigen_residual={res!r}")
        if rep["property_o"] != {"top_multiplicity": 1, "rotation_closed": True}:
            problems.append(f"property_o={rep['property_o']!r}")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    return [f"Gr({k},{n}): " + "; ".join(problems)] if problems else []


def check_sweep(n_max: int, exit_code: int, stdout: str) -> list[str]:
    """Failed operations of one `sweep --format json` call, one per row.

    A bad exit code or unreadable output fails every row."""
    expected = [(k, n) for n in range(2, n_max + 1) for k in range(1, n)]
    if exit_code != 0:
        return [f"sweep exit code {exit_code}"] * len(expected)
    try:
        rows = json.loads(stdout)
        got = [(r["k"], r["n"]) for r in rows]
        if got != expected:
            return [f"sweep rows {got[:3]}... != expected"] * len(expected)
        failed = []
        for (k, n), row in zip(expected, rows):
            problems = _check_instance(k, n, {"sweep": row["delta0"]},
                                       row["bound"], row["verdict"])
            if problems:
                failed.append("; ".join(problems))
        return failed
    except (ValueError, KeyError, TypeError) as exc:
        return [f"sweep unreadable output: {exc!r}"] * len(expected)


def check_matrix_route(k: int, n: int, order: int, delta0) -> list[str]:
    """Failed operations of one library matrix-route value (zero or one)."""
    problems = []
    if order != math.comb(n, k):
        problems.append(f"operator order {order} != {math.comb(n, k)}")
    if not _close(delta0, delta0_reference(k, n)):
        problems.append(f"matrix delta0={delta0!r} != {delta0_reference(k, n)!r}")
    return [f"Gr({k},{n}): " + "; ".join(problems)] if problems else []


def check_inequalities(n_max: int, exit_code: int, stdout: str) -> list[str]:
    """Failed operations of one `inequalities` call.

    The command stops at its first failing check, so any failure fails every
    check: none of them is counted as a skip."""
    count = inequality_count(n_max)
    if exit_code != 0 or stdout.strip() != f"all {count} inequality checks passed":
        return [f"inequalities exit code {exit_code}, "
                f"output {stdout.strip()[:200]!r}"] * count
    return []
