#!/usr/bin/env python3
"""Regenerate the datasets behind every figure of the study by running the
tripod-holonomy commands in turn, each into its own directory under --out:

  ideal/        ideal-sweep: the noiseless fidelity curve
  optimal/      optimal: working points at 0 and over the small and large
                couplings, and noise.json, the noise table (calibrated with
                --calibrate)
  noisy/        noisy-sweep with optimal/noise.json: the noisy-curve family
  robustness/   robustness over the optimal table: R at each of its
                couplings
  fit_all/      fit over every optimal row: the quartic and cubic fits
  fit_small/    fit over the small-coupling rows (copied there as
                small_coupling_points.json): the linear laws and the
                F*(tau*) slope

Every directory holds its command's run_config.json. The script stops at
the first command that fails and exits with its code. Plotting is left to
post-processing.
"""

import argparse
import json
import sys
from pathlib import Path

from tripod_holonomy import cli
from tripod_holonomy.analysis import DEFAULT_FIT_LAMBDAS
from tripod_holonomy.cli import DEFAULT_LAMBDA_LIST


def parse_args(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--calibrate", action="store_true",
                   help="scale the noise table so the fitted F2 matches 6.34")
    p.add_argument("--quick", action="store_true", help="61-point curves instead of 241")
    return p.parse_args(argv)


def _lambda_list(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def plan(args):
    """The CLI argument lists, in order; each is built after the previous
    command succeeded, since the last one reads the optimal table."""
    out = Path(args.out)
    grid = f"0.25:60.25:{61 if args.quick else 241}"
    large = DEFAULT_LAMBDA_LIST[1:]
    table = out / "optimal" / "optimal_points.json"
    noise = str(out / "optimal" / "noise.json")
    calibrate = ["--calibrate-f2", "6.34"] if args.calibrate else []

    yield ["ideal-sweep", "--grid", grid, "--out", str(out / "ideal")]
    yield ["optimal", "--lambda-sq", _lambda_list((0.0,) + DEFAULT_FIT_LAMBDAS + large),
           *calibrate, "--out", str(out / "optimal")]
    yield ["noisy-sweep", "--grid", grid, "--lambda-sq", _lambda_list(large),
           "--noise-file", noise, "--out", str(out / "noisy")]
    yield ["robustness", "--table", str(table), "--out", str(out / "robustness")]
    yield ["fit", "--table", str(table), "--out", str(out / "fit_all")]

    doc = json.loads(table.read_text())
    doc["rows"] = [r for r in doc["rows"] if r["lambda_sq"] in DEFAULT_FIT_LAMBDAS]
    small = out / "fit_small" / "small_coupling_points.json"
    small.parent.mkdir(parents=True, exist_ok=True)
    small.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    yield ["fit", "--table", str(small), "--out", str(out / "fit_small")]


def main(argv=None) -> int:
    for command in plan(parse_args(argv)):
        code = cli.main(command)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
