"""Command-line surface: verify, sweep, graph, spectrum, fk, inequalities.

Each subcommand is one cmd_* function taking the parsed arguments.  Exit
codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
configuration error (including --tol outside (0, 1), a --grid-step, or an fk
--x-min or --step, that is not finite and > 0, a non-finite fk --x-max, fk
--k < 1, --rank-cap < 2, --max-iter or --shift < 0, a grid too large for
memory, a verify, spectrum or graph instance whose rank C(n,k) exceeds
--rank-cap, refused before anything is enumerated (sweep skips such a row's
matrix route instead), and one whose binomials overflow int64).  verify and
spectrum print their whole report, then decide from the names of the failed
checks alone (spectral_report's, and verify's `bound` on VIOLATION), each
printed as `FAIL <name>` on stderr; verify's JSON lists them as "failed",
with null for a value never reached.  In verify, --shift is the shift of the
power steps that certify the matrix route's Collatz-Wielandt bracket (default
n), and --max-iter caps their operator products (from the closed-form Perron
vector one suffices); sweep has none: a row whose matrix route does not
converge within spectral.DEFAULT_MAX_ITER products gets the verdict
NOT_CONVERGED, if its bound holds.  Every command runs in one process.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import galkin as gk
from . import spectral as sp_mod
from .bruhat import build_graph, export_graph, release_held
from .combinatorics import GrassmannianParams
from .errors import InstanceTooLargeError, IterationFailureError
from .symfunc import enumerate_indices

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
DEFAULT_RANK_CAP = 100_000


def _instance(args: argparse.Namespace) -> GrassmannianParams:
    """Gr(--k, --n), unless its rank exceeds --rank-cap."""
    params = GrassmannianParams(args.k, args.n)
    if params.rank > args.rank_cap:
        raise InstanceTooLargeError(
            f"rank C({params.n},{params.k}) = {params.rank} exceeds cap {args.rank_cap}")
    return params


def _json(obj) -> str:
    """Compact strict JSON: a float the run never reached (NaN, inf) is null."""
    text = json.dumps(obj, separators=(",", ":"))
    return json.dumps(json.loads(text, parse_constant=lambda _: None), separators=(",", ":"))


def _report_json(params, srep, grep, failed: list[str]) -> str:
    return _json({
        "k": params.k, "n": params.n, "dim": params.dim, "rank": params.rank,
        "delta0": {"matrix": srep.delta0_matrix, "schur": srep.delta0_schur,
                   "sine": srep.delta0_sine, "cosine": srep.delta0_cosine},
        "bound": grep.bound, "margin": grep.margin, "verdict": grep.verdict,
        "property_o": {"top_multiplicity": srep.top_multiplicity,
                       "rotation_closed": srep.rotation_closed},
        "max_eigen_residual": srep.max_eigen_residual,
        "matrix_bracket": list(srep.matrix_bracket),
        "failed": failed,
    })


def _property_o_line(srep: sp_mod.SpectralReport) -> str:
    return (f"property_o: top_multiplicity={srep.top_multiplicity}  "
            f"rotation_closed={srep.rotation_closed}  "
            f"top_on_roots={srep.top_arguments_are_roots}")


def _exit_code(failed: list[str]) -> int:
    """EXIT_OK if no check failed; else a `FAIL <name>` line on stderr each."""
    for name in failed:
        print(f"FAIL {name}", file=sys.stderr)
    return EXIT_MATH_FAIL if failed else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    params = _instance(args)
    srep = sp_mod.spectral_report(params, tol=args.tol, shift=args.shift,
                                  max_iter=args.max_iter)
    grep = gk.verify_galkin(params)
    failed = srep.failed + ([] if grep.verdict in gk.HOLDS else ["bound"])
    if args.format == "json":
        print(_report_json(params, srep, grep, failed))
    else:
        print(f"Gr({params.k},{params.n})  dim={params.dim}  rank={params.rank}")
        print(f"delta0 matrix={srep.delta0_matrix:.12f}  "
              f"schur={srep.delta0_schur:.12f}  "
              f"sine={srep.delta0_sine:.12f}  cosine={srep.delta0_cosine:.12f}")
        print(f"bound={grep.bound:g}  margin={grep.margin:.12f}  "
              f"verdict={grep.verdict}  projective_space={grep.is_projective_space}")
        print(_property_o_line(srep))
        print(f"max_eigen_residual={srep.max_eigen_residual:.3e}  "
              f"power_iterations={srep.power_iterations}")
    return _exit_code(failed)


def _sweep_row(k, n, tol, rank_cap):
    params = GrassmannianParams(k, n)
    grep = gk.verify_galkin(params)
    verdict, matrix_delta0 = grep.verdict, None
    if params.rank <= rank_cap:
        op = sp_mod.c1_operator(params)
        try:
            matrix_delta0 = sp_mod.principal_eigenvalue(op, shift=float(n))
        except IterationFailureError:
            verdict = "NOT_CONVERGED"
        else:
            if not abs(matrix_delta0 - grep.delta0) <= tol * max(1.0, grep.delta0):
                verdict = "ROUTES_DISAGREE"
    return {"k": k, "n": n, "delta0": grep.delta0, "delta0_matrix": matrix_delta0,
            "bound": grep.bound, "margin": grep.margin,
            "verdict": verdict if grep.verdict in gk.HOLDS else grep.verdict}


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n_max < 2:
        raise ValueError("need n_max >= 2")
    # each k > n/2 right before its dual, which reuses its hop table (build_graph)
    rows = [_sweep_row(k, n, args.tol, args.rank_cap) for n in range(2, args.n_max + 1)
            for k in sorted(range(1, n), key=lambda k: (abs(n - 2 * k), -k))]
    rows.sort(key=lambda row: (row["n"], row["k"]))
    if args.format == "json":
        print(_json(rows))
    else:
        print("k n delta0 bound margin verdict")
        for r in rows:
            print(f"{r['k']} {r['n']} {r['delta0']:.10f} {r['bound']:g} "
                  f"{r['margin']:.10f} {r['verdict']}")
    return EXIT_OK if all(r["verdict"] in gk.HOLDS for r in rows) else EXIT_MATH_FAIL


def cmd_graph(args: argparse.Namespace) -> int:
    graph = build_graph(_instance(args))
    sys.stdout.write(export_graph(graph, args.format))
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _instance(args)
    srep = sp_mod.spectral_report(params, tol=args.tol)
    for I, eig, res in zip(enumerate_indices(params), srep.spectrum,
                           srep.eigen_residuals):
        halves = "(" + ",".join(f"{d / 2:g}" for d in I) + ")"
        print(f"I={halves}  eigenvalue={eig.real:+.10f}{eig.imag:+.10f}i  "
              f"residual={res:.3e}")
    print(_property_o_line(srep))
    return _exit_code(srep.failed)  # spectrum does not check the bound


def cmd_fk(args: argparse.Namespace) -> int:
    rows = gk.fk_table(args.k, args.x_min, args.x_max, args.step)
    print("x,F")
    for x, f in rows:
        print(f"{x:.17g},{f:.17g}")
    return EXIT_OK


def cmd_inequalities(args: argparse.Namespace) -> int:
    if args.n_max < 6:
        raise ValueError("need n_max >= 6")
    ns, tau = range(6, args.n_max + 1), gk.TAU_NUM
    checks = [(f"second_proof_lemma(n={n})", m >= -tau)
              for n, m in zip(ns, gk.second_proof_margins(ns, args.grid_step))]
    checks += [(f"k2_inequality(n={n})", gk.check_k2_inequality(n))
               for n in range(4, args.n_max + 1)]
    checks += [(f"boundary_equality(k={k})", gk.check_boundary_equality(k) < tau)
               for k in range(3, 13)]
    for k in range(2, 13):
        checks += [(f"limit(k={k})", gk.check_limit(k)), (
            f"concavity_monotonicity(k={k})", gk.check_concavity_monotonicity(k))]
    for name, ok in checks:
        if not ok:
            print(f"FAIL {name}")
            return EXIT_MATH_FAIL
    print(f"all {len(checks)} inequality checks passed")
    return EXIT_OK


def _checked(cast, valid, need: str):
    """An argparse type that rejects values failing `valid` (exit code 2)."""
    def parse(text: str):
        value = cast(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid float value" wording
    return parse


_tol = _checked(float, lambda v: 0 < v < 1, "a tolerance in (0, 1)")
_finite = _checked(float, lambda v: abs(v) < float("inf"), "a finite number")
_positive = _checked(float, lambda v: 0 < v < float("inf"), "a finite number > 0")
_k = _checked(int, lambda v: v >= 1, "a k >= 1")
_rank_cap = _checked(int, lambda v: v >= 2, "a rank cap >= 2")
_max_iter = _checked(int, lambda v: v >= 0, "a cap >= 0")
_shift = _checked(float, lambda v: v >= 0, "a shift >= 0")


@cache  # argparse parsers hold no per-call state; main reuses one
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
        p.add_argument("--tol", type=_tol, default=1e-8)
        p.add_argument("--rank-cap", type=_rank_cap, default=DEFAULT_RANK_CAP)

    p = sub.add_parser("verify", help="four-route delta0 + Galkin bound check")
    common(p)
    p.add_argument("--shift", type=_shift, default=None)
    p.add_argument("--max-iter", type=_max_iter, default=sp_mod.DEFAULT_MAX_ITER)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("sweep", help="bound check over all (k,n) up to n-max")
    p.add_argument("--n-max", type=int, required=True)
    common(p, need_k=False, need_n=False)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("graph", help="export the quantum Bruhat graph")
    common(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(run=cmd_graph)

    p = sub.add_parser("spectrum", help="closed-form eigenvalues with residuals")
    common(p)
    p.set_defaults(run=cmd_spectrum)

    p = sub.add_parser("fk", help="CSV samples of the gap function F^k")
    p.add_argument("--k", type=_k, required=True)
    p.add_argument("--x-min", type=_positive, required=True)
    p.add_argument("--x-max", type=_finite, required=True)
    p.add_argument("--step", type=_positive, required=True)
    p.set_defaults(run=cmd_fk)

    p = sub.add_parser("inequalities", help="full grid-sampled lemma suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--grid-step", type=_positive, default=0.01)
    p.set_defaults(run=cmd_inequalities)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        release_held()  # no hop table outlives the command that built it


if __name__ == "__main__":
    sys.exit(main())
