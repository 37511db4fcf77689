#!/usr/bin/env python3
"""Emit CSV samples of the gap functions F^k for k = 2, 4, 6, 8.

Writes one file per k (fk_<k>.csv) into the output directory: the output
of `chevalley fk`, sampled from just above the curve's concavity threshold
2(k-1) up to x_max.  The CSVs are plot-ready: header `x,F`, full double
precision.  A value that `fk` refuses writes no file; the script returns
the first nonzero CLI exit code (2, the flag named on stderr).
"""

import argparse
import contextlib
import io
import pathlib
import sys

from chevalley import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("."))
    ap.add_argument("--x-max", type=float, default=100.0)
    ap.add_argument("--step", type=float, default=0.25)
    ap.add_argument("--ks", type=int, nargs="+", default=[2, 4, 6, 8])
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for k in args.ks:
        x_min = 2.0 * (k - 1) + args.step
        csv = io.StringIO()
        with contextlib.redirect_stdout(csv):
            # the given flags first, so a bad value is named before x_min
            code = cli.main(["fk", f"--k={k}", f"--step={args.step!r}",
                             f"--x-max={args.x_max!r}", f"--x-min={x_min!r}"])
        if code:
            return code
        path = args.out_dir / f"fk_{k}.csv"
        path.write_text(csv.getvalue())
        rows = len(csv.getvalue().splitlines()) - 1  # below the header
        print(f"wrote {path} ({rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
