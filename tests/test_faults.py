"""Every check behind verify and spectrum, seen to fail through cli.main.

One table of named faults.  Each row injects one fault: a monkeypatch of one
src/ function or constant, or a flag.  The row states the exact list of
failed checks that `verify --format json` names, in the order of
spectral_report's table with `bound` last.  Every run must exit 1 when that
list is not empty, print strict JSON (no NaN or Infinity: a value never
reached is null) or the whole text report, and write one `FAIL <name>` line
on stderr per failed check.  spectrum runs the same report without the
bound, so it fails the same checks but `bound`.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import numpy as np
import pytest

from chevalley import galkin, spectral, symfunc
from chevalley.cli import main

GR37 = ("--k", "3", "--n", "7")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def replace(module, name, make):
    """A patch setting module.name to make(the real module.name)."""
    real = getattr(module, name)
    return lambda mp: mp.setattr(module, name, make(real))


def constant(module, name, value):
    return lambda mp: mp.setattr(module, name, value)


def one_route_off(route):
    """This delta0 route alone, 1e-6 relative off."""
    module, name = {"matrix": (spectral, "_power_iteration"),
                    "schur": (spectral, "schur_eval"),
                    "sine": (galkin, "delta0_sine"),
                    "cosine": (galkin, "delta0_cosine_sum")}[route]

    def make(real):
        def off(*args):
            value = real(*args)
            if route == "matrix":
                return (value[0] * (1 + 1e-6),) + value[1:]
            return value * (1 + 1e-6)
        return off
    return replace(module, name, make)


def off_by_one_grade(real):
    # the grade |lam| mod n off by one at one coordinate: every rotated
    # eigenvector gets a wrong phase there, and only the residual sees it
    def tables(params):
        *rest, grades, powers = real(params)
        grades = grades.copy()
        grades[1] += 1
        return (*rest, grades, powers)
    return tables


def moved_last_eigenvalue(real):
    def spectrum(params):
        values = real(params)
        values[-1] += 1e-6
        return values
    return spectrum


def half_a_root_on(real):
    # a non-real top value turned half a root on: still of top modulus
    def spectrum(params):
        values = real(params)
        on_top = np.flatnonzero(np.abs(np.abs(values) - np.abs(values).max()) < 1e-8)
        values[on_top[np.argmax(values[on_top].imag)]] *= np.exp(1j * np.pi / params.n)
        return values
    return spectrum


def zero_start(real):
    # the power steps' iterate has no positive norm from the start
    def operator(params):
        matrix = real(params)
        matrix.start = np.zeros(params.rank)
        return matrix
    return operator


def nan(real):
    return lambda *args: np.nan


class Fault(NamedTuple):
    failed: list                        # verify's "failed", in table order
    patch: Callable | None = None       # applied to pytest's monkeypatch
    argv: tuple = GR37                  # the instance and any flag
    spectrum: bool = True               # spectrum takes the same flags
    check: Callable | None = None       # more on verify's JSON and text


def matrix_never_reached(obj, text):
    # the old wording was "no convergence after 0 operator products"
    assert obj["delta0"]["matrix"] is None and obj["matrix_bracket"] == [None, None]
    assert obj["verdict"] == "holds_strict"
    assert "delta0 matrix=nan" in text and text.endswith("power_iterations=0\n")


def only_route_off(route):
    def check(obj, text):
        others = [v for r, v in obj["delta0"].items() if r != route]
        assert max(others) - min(others) < 1e-12 * max(others)
        assert obj["delta0"][route] == pytest.approx(others[0] * (1 + 1e-6), rel=1e-9)
    return check


def residual_above_tol(obj, text):
    assert obj["max_eigen_residual"] > 1e-8


def top_off_the_roots(obj, text):
    # top_on_roots has no JSON key of its own: "failed" names it
    assert obj["property_o"] == {"top_multiplicity": 1, "rotation_closed": True}
    assert "top_on_roots=False" in text


def violation(obj, text):
    assert obj["verdict"] == "VIOLATION"


def nan_sine(obj, text):
    violation(obj, text)
    assert obj["delta0"]["sine"] is None and obj["margin"] is None
    assert "sine=nan" in text and "margin=nan  verdict=VIOLATION" in text


def null_route(route):
    def check(obj, text):
        assert obj["delta0"][route] is None and obj["verdict"] == "holds_strict"
    return check


FAULTS = {
    "not_strongly_connected": Fault(
        ["strongly_connected"],
        replace(spectral, "is_strongly_connected", lambda real: lambda matrix: False)),
    "zero_cap": Fault(
        ["converged", "routes_agree"], argv=("--k", "2", "--n", "6", "--max-iter", "0"),
        spectrum=False, check=matrix_never_reached),
    "zero_start": Fault(
        ["converged", "routes_agree"], replace(spectral, "c1_operator", zero_start)),
    "zero_power_tol": Fault(  # one product, its bracket never narrow enough
        ["converged"], constant(spectral, "DEFAULT_POWER_TOL", 0.0),
        argv=GR37 + ("--max-iter", "1"), spectrum=False),
    "complex_schur": Fault(
        ["schur_real"],
        replace(spectral, "schur_eval", lambda real: lambda *args: real(*args) + 1e-6j)),
    **{f"{route}_off": Fault(["routes_agree"], one_route_off(route),
                             check=only_route_off(route))
       for route in ("matrix", "schur", "sine", "cosine")},
    "nan_schur": Fault(["routes_agree"], replace(spectral, "schur_eval", nan),
                       check=null_route("schur")),
    "nan_cosine": Fault(["routes_agree"], replace(galkin, "delta0_cosine_sum", nan),
                        check=null_route("cosine")),
    "nan_sine": Fault(["routes_agree", "bound"], replace(galkin, "delta0_sine", nan),
                      check=nan_sine),
    "tol_1e-16": Fault(["routes_agree", "residuals"], argv=GR37 + ("--tol", "1e-16")),
    "wrong_phase": Fault(["residuals"], replace(symfunc, "_vertex_tables", off_by_one_grade),
                         check=residual_above_tol),
    "wide_property_o_band": Fault(  # a band of 10 takes in more than the top
        ["top_simple"], constant(spectral, "PROPERTY_O_TOL", 10.0)),
    "moved_eigenvalue": Fault(
        ["rotation_closed"],
        replace(spectral, "spectrum_closed_form", moved_last_eigenvalue)),
    "top_half_a_root_on": Fault(
        ["rotation_closed", "top_on_roots"],
        replace(spectral, "spectrum_closed_form", half_a_root_on)),
    "top_off_the_roots": Fault(
        ["top_on_roots"],
        replace(spectral, "property_o_check", lambda real: lambda params: (1, True, False)),
        check=top_off_the_roots),
    "equality_off_projective_space": Fault(  # TAU_NUM = 1 reads margin 2.7 as 0
        ["bound"], constant(galkin, "TAU_NUM", 1.0), check=violation),
}


def test_every_check_has_a_row():
    names = {name for fault in FAULTS.values() for name in fault.failed}
    assert names == {"strongly_connected", "converged", "schur_real", "routes_agree",
                     "residuals", "top_simple", "rotation_closed", "top_on_roots",
                     "bound"}


@pytest.mark.parametrize("name", list(FAULTS))
def test_fault(name, monkeypatch):
    fault = FAULTS[name]
    if fault.patch:
        fault.patch(monkeypatch)
    fail_lines = "".join(f"FAIL {check}\n" for check in fault.failed)

    code, out, err = run_cli("verify", *fault.argv, "--format", "json")
    obj = strict_json(out)
    assert (code, obj["failed"], err) == (1, fault.failed, fail_lines)
    code, text, err = run_cli("verify", *fault.argv)
    assert (code, err) == (1, fail_lines)
    assert text.startswith("Gr(") and len(text.splitlines()) == 5  # the whole report
    if fault.check:
        fault.check(obj, text)

    if fault.spectrum:
        failed = [check for check in fault.failed if check != "bound"]
        code, out, err = run_cli("spectrum", *fault.argv)
        assert (code, err) == (int(bool(failed)), "".join(f"FAIL {c}\n" for c in failed))
        lines = out.splitlines()  # the whole report: its property-O line is verify's
        assert len(lines) == obj["rank"] + 1 and lines[-1] == text.splitlines()[3]


@pytest.mark.parametrize("route", ["matrix", "schur", "sine", "cosine"])
def test_a_route_off_by_1e_6_passes_a_looser_tol(route, monkeypatch):
    # the bound, residual and property-O checks all pass this fault, so with
    # the route comparison loosened past it both commands exit 0
    FAULTS[f"{route}_off"].patch(monkeypatch)
    for command in ("spectrum", "verify"):
        code, _, err = run_cli(command, *GR37, "--tol", "1e-3")
        assert (code, err) == (0, "")
    code, out, _ = run_cli("verify", *GR37, "--tol", "1e-3", "--format", "json")
    assert strict_json(out)["failed"] == []
