"""One workload pass in a fresh interpreter.

Run by run.py as ``python3 bench/child.py '<json spec>'`` from the checkout
root.  The spec names the workload, its inputs and whether the pass is
traced.  The last stdout line is a JSON result: the monotonic clock reading
when ``chevalley.cli`` finished importing, the pass's wall time from the
first call to the last checked verdict, peak RSS and the failed operations.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import chevalley.cli  # noqa: E402  (the import is what setup_s times)

IMPORTED_AT = time.monotonic()

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = chevalley.cli.main(argv)  # looked up per call: tracing patches it
    return code, out.getvalue()


def _operation(run, operations: int) -> list[str]:
    """Failed operations of one call; an exception fails all of them."""
    try:
        return run()
    except Exception as exc:  # the pass must go on and count the failure
        return [f"{type(exc).__name__}: {exc}"] * operations


def run_pass(workload: str, inputs: list) -> list[str]:
    """Run every operation of the workload once; return the failed ones."""
    failed = []
    if workload == "verify":
        for k, n in inputs:
            argv = ["verify", "--k", str(k), "--n", str(n), "--format", "json"]
            failed += _operation(
                lambda: workloads.check_verify(k, n, *_cli(argv)), 1)
    elif workload == "sweep":
        (n_max,) = inputs
        argv = ["sweep", "--n-max", str(n_max), "--format", "json"]
        failed += _operation(lambda: workloads.check_sweep(n_max, *_cli(argv)),
                             workloads.operations("sweep", inputs))
    elif workload == "matrix-thin":
        from chevalley import spectral
        from chevalley.combinatorics import GrassmannianParams

        def matrix_route(n):
            operator = spectral.c1_operator(GrassmannianParams(2, n))
            value = spectral.principal_eigenvalue(operator, shift=float(n))
            return workloads.check_matrix_route(2, n, operator.shape[0], value)

        for n in inputs:
            failed += _operation(lambda: matrix_route(n), 1)
    elif workload == "inequalities":
        (n_max,) = inputs
        argv = ["inequalities", "--n-max", str(n_max)]
        failed += _operation(
            lambda: workloads.check_inequalities(n_max, *_cli(argv)),
            workloads.operations("inequalities", inputs))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return failed


def main() -> int:
    spec = json.loads(sys.argv[1])
    if not os.path.realpath(chevalley.cli.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print(f"error: imported chevalley from {chevalley.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 3
    result = {"imported_at": IMPORTED_AT,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if spec["workload"] is not None:
        trace = tracer.Tracer() if spec["traced"] else None
        with trace or contextlib.nullcontext():
            start = time.perf_counter()
            failed = run_pass(spec["workload"], spec["inputs"])
            wall = time.perf_counter() - start
        if trace is not None:
            result["trace"] = trace.summary()
            os.makedirs(os.path.dirname(spec["spans_out"]), exist_ok=True)
            with open(spec["spans_out"], "w") as fh:
                json.dump(trace.span_records(), fh)
        result.update(wall_s=wall,
                      attempted=workloads.operations(spec["workload"],
                                                     spec["inputs"]),
                      failed=failed)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
