"""Command-line surface: verify, sweep, graph, spectrum, fk, inequalities.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
configuration error.  Worker count for the sweep is taken from
CHEVALLEY_WORKERS (default 1); the inequality suite and single-instance
commands are always sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import galkin as gk
from . import spectral as sp_mod
from .bruhat import build_graph, export_graph
from .combinatorics import DEFAULT_RANK_CAP, GrassmannianParams
from .errors import CrossCheckError, InstanceTooLargeError, IterationFailureError
from .symfunc import enumerate_indices, roots_tuple

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    command: str
    k: int | None = None
    n: int | None = None
    n_max: int | None = None
    tol: float = 1e-8
    grid_step: float = 0.01
    shift: float | None = None  # None means "use n"
    max_iter: int = 1_000_000
    format: str = "text"
    rank_cap: int = DEFAULT_RANK_CAP
    parallelism: int = 1

    def __post_init__(self):
        if self.tol <= 0 or self.grid_step <= 0 or self.rank_cap < 2:
            raise ValueError("need tol > 0, grid_step > 0, rank_cap >= 2")


def _report_json(params, srep: sp_mod.SpectralReport, grep: gk.GalkinReport) -> str:
    obj = {
        "k": params.k,
        "n": params.n,
        "dim": params.dim,
        "rank": params.rank,
        "delta0": {
            "matrix": srep.delta0_matrix,
            "schur": srep.delta0_schur,
            "sine": srep.delta0_sine,
            "cosine": srep.delta0_cosine,
        },
        "bound": grep.bound,
        "margin": grep.margin,
        "verdict": grep.verdict,
        "property_o": {
            "top_multiplicity": srep.top_multiplicity,
            "rotation_closed": srep.rotation_closed,
        },
        "max_eigen_residual": srep.max_eigen_residual,
    }
    return json.dumps(obj, separators=(",", ":"))


def cmd_verify(cfg: RunConfig) -> int:
    params = GrassmannianParams(cfg.k, cfg.n)
    srep = sp_mod.spectral_report(params, tol=cfg.tol, shift=cfg.shift,
                                  max_iter=cfg.max_iter, rank_cap=cfg.rank_cap)
    grep = gk.verify_galkin(params)
    if cfg.format == "json":
        print(_report_json(params, srep, grep))
    else:
        print(f"Gr({params.k},{params.n})  dim={params.dim}  rank={params.rank}")
        print(f"delta0 matrix={srep.delta0_matrix:.12f}  "
              f"schur={srep.delta0_schur:.12f}  "
              f"sine={srep.delta0_sine:.12f}  cosine={srep.delta0_cosine:.12f}")
        print(f"bound={grep.bound:g}  margin={grep.margin:.12f}  "
              f"verdict={grep.verdict}  projective_space={grep.is_projective_space}")
        print(f"property_o: top_multiplicity={srep.top_multiplicity}  "
              f"rotation_closed={srep.rotation_closed}  "
              f"top_on_roots={srep.top_arguments_are_roots}")
        print(f"max_eigen_residual={srep.max_eigen_residual:.3e}  "
              f"power_iterations={srep.power_iterations}")
    ok = (grep.verdict in ("holds_strict", "holds_equality")
          and grep.consistent
          and srep.top_multiplicity == 1
          and srep.rotation_closed
          and srep.max_eigen_residual < cfg.tol)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def _sweep_row(args):
    k, n, tol, rank_cap = args
    params = GrassmannianParams(k, n)
    grep = gk.verify_galkin(params)
    matrix_delta0 = None
    if params.rank <= rank_cap:
        op = sp_mod.c1_operator(params, rank_cap=rank_cap)
        matrix_delta0 = sp_mod.principal_eigenvalue(op, shift=float(n))
        if abs(matrix_delta0 - grep.delta0) > tol * max(1.0, grep.delta0):
            grep.verdict = "ROUTES_DISAGREE"
    return {"k": k, "n": n, "delta0": grep.delta0, "delta0_matrix": matrix_delta0,
            "bound": grep.bound, "margin": grep.margin, "verdict": grep.verdict}


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.n_max < 2:
        raise ValueError("need n_max >= 2")
    jobs = [(k, n, cfg.tol, cfg.rank_cap)
            for n in range(2, cfg.n_max + 1) for k in range(1, n)]
    if cfg.parallelism > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(j) for j in jobs]
    if cfg.format == "json":
        print(json.dumps(rows, separators=(",", ":")))
    else:
        print("k n delta0 bound margin verdict")
        for r in rows:
            print(f"{r['k']} {r['n']} {r['delta0']:.10f} {r['bound']:g} "
                  f"{r['margin']:.10f} {r['verdict']}")
    failed = any(r["verdict"] in ("VIOLATION", "ROUTES_DISAGREE") for r in rows)
    return EXIT_MATH_FAIL if failed else EXIT_OK


def cmd_graph(cfg: RunConfig) -> int:
    params = GrassmannianParams(cfg.k, cfg.n)
    graph = build_graph(params, rank_cap=cfg.rank_cap)
    sys.stdout.write(export_graph(graph, cfg.format))
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    params = GrassmannianParams(cfg.k, cfg.n)
    op = sp_mod.c1_operator(params, rank_cap=cfg.rank_cap)
    indices = enumerate_indices(params)
    ok = True
    for I in indices:
        eig = params.n * np.sum(roots_tuple(I, params))
        res = sp_mod.eigen_residual(I, params, op)
        if res >= cfg.tol:
            ok = False
        halves = "(" + ",".join(f"{d / 2:g}" for d in I) + ")"
        print(f"I={halves}  eigenvalue={eig.real:+.10f}{eig.imag:+.10f}i  "
              f"residual={res:.3e}")
    top_mult, rot_closed, top_roots = sp_mod.property_o_check(params, cfg.tol)
    print(f"property_o: top_multiplicity={top_mult}  "
          f"rotation_closed={rot_closed}  top_on_roots={top_roots}")
    if top_mult != 1 or not rot_closed:
        ok = False
    return EXIT_OK if ok else EXIT_MATH_FAIL


def cmd_fk(cfg: RunConfig, x_min: float, x_max: float, step: float) -> int:
    if cfg.k < 1:
        raise ValueError("need k >= 1")
    rows = gk.fk_table(cfg.k, x_min, x_max, step)
    print("x,F")
    for x, f in rows:
        print(f"{x:.17g},{f:.17g}")
    return EXIT_OK


def cmd_inequalities(cfg: RunConfig) -> int:
    if cfg.n_max < 6:
        raise ValueError("need n_max >= 6")
    checks = []
    for n in range(6, cfg.n_max + 1):
        checks.append((f"second_proof_lemma(n={n})",
                       lambda n=n: gk.check_second_proof_lemma(n, cfg.grid_step)))
    for n in range(4, cfg.n_max + 1):
        checks.append((f"k2_inequality(n={n})",
                       lambda n=n: gk.check_k2_inequality(n)))
    for k in range(3, 13):
        checks.append((f"boundary_equality(k={k})",
                       lambda k=k: gk.check_boundary_equality(k) < gk.TAU_NUM))
    for k in range(2, 13):
        checks.append((f"limit(k={k})", lambda k=k: gk.check_limit(k)))
        checks.append((f"concavity_monotonicity(k={k})",
                       lambda k=k: gk.check_concavity_monotonicity(k)))
    for name, run in checks:
        if not run():
            print(f"FAIL {name}")
            return EXIT_MATH_FAIL
    print(f"all {len(checks)} inequality checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chevalley",
        description="Quantum Chevalley operator of Gr(k,n): spectrum, "
                    "Galkin lower bound, and inequality suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_k=True, need_n=True):
        if need_k:
            p.add_argument("--k", type=int, required=True)
        if need_n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--rank-cap", type=int, default=DEFAULT_RANK_CAP)

    p = sub.add_parser("verify", help="four-route delta0 + Galkin bound check")
    common(p)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("sweep", help="bound check over all (k,n) up to n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--rank-cap", type=int, default=DEFAULT_RANK_CAP)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("graph", help="export the quantum Bruhat graph")
    common(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")

    p = sub.add_parser("spectrum", help="closed-form eigenvalues with residuals")
    common(p)

    p = sub.add_parser("fk", help="CSV samples of the gap function F^k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    p = sub.add_parser("inequalities", help="full grid-sampled lemma suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--grid-step", type=float, default=0.01)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            cfg = RunConfig("verify", k=args.k, n=args.n, tol=args.tol,
                            shift=args.shift, max_iter=args.max_iter,
                            format=args.format, rank_cap=args.rank_cap)
            return cmd_verify(cfg)
        if args.command == "sweep":
            workers = int(os.environ.get("CHEVALLEY_WORKERS", "1"))
            cfg = RunConfig("sweep", n_max=args.n_max, tol=args.tol,
                            format=args.format, rank_cap=args.rank_cap,
                            parallelism=workers)
            return cmd_sweep(cfg)
        if args.command == "graph":
            cfg = RunConfig("graph", k=args.k, n=args.n, tol=args.tol,
                            format=args.format, rank_cap=args.rank_cap)
            return cmd_graph(cfg)
        if args.command == "spectrum":
            cfg = RunConfig("spectrum", k=args.k, n=args.n, tol=args.tol,
                            rank_cap=args.rank_cap)
            return cmd_spectrum(cfg)
        if args.command == "fk":
            cfg = RunConfig("fk", k=args.k)
            return cmd_fk(cfg, args.x_min, args.x_max, args.step)
        if args.command == "inequalities":
            cfg = RunConfig("inequalities", n_max=args.n_max,
                            grid_step=args.grid_step)
            return cmd_inequalities(cfg)
        return EXIT_USAGE
    except (ValueError, InstanceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CrossCheckError, IterationFailureError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
