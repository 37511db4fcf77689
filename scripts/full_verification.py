#!/usr/bin/env python3
"""End-to-end verification run through the CLI: `chevalley verify` for every
(k,n) up to n_max, then `chevalley inequalities --n-max 60`.

Prints one JSON report line per instance, then the suite's summary, and
returns the first nonzero CLI exit code (1 a check failed, 2 usage error).
"""

import argparse
import sys

from chevalley import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--tol", default="1e-8")
    args = ap.parse_args()

    for n in range(2, args.n_max + 1):
        for k in range(1, n):
            code = cli.main(["verify", "--k", str(k), "--n", str(n),
                             "--tol", args.tol, "--format", "json"])
            if code:
                return code
    return cli.main(["inequalities", "--n-max", "60"])


if __name__ == "__main__":
    sys.exit(main())
