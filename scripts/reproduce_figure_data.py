#!/usr/bin/env python3
"""Regenerate the datasets behind every figure of the study: the noiseless
fidelity curve, the noisy-curve family, the optimal-working-point tables
with their noise-response fits, and the robustness table.

Outputs are plain CSV/JSON under --out (default results/); plotting is left
to post-processing. The full run takes on the order of ten minutes on one
core; --quick trades grid resolution for a ~2 minute smoke run.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from tripod_holonomy import (
    calibrate_gamma0,
    f_of_tau_relation,
    fit_noise_response,
    high_temperature_noise,
    optimal_time,
    robustness,
    standard_not_loop,
    sweep,
)
from tripod_holonomy.analysis import optimal_point_table, sweep_curve_to_csv

NOISY_LAMBDAS = (0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)
SMALL_LAMBDAS = tuple(np.linspace(1e-4, 1e-3, 7))
LARGE_LAMBDAS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--gamma0", type=float, default=0.5, help="flat high-T rate")
    p.add_argument("--calibrate", action="store_true",
                   help="calibrate gamma0 so the fitted F2 matches 6.34")
    p.add_argument("--quick", action="store_true", help="coarser grids")
    return p.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.time()

    loop = standard_not_loop(1.0, 1.0)
    n_grid = 61 if args.quick else 241
    grid = np.linspace(0.25, 60.25, n_grid)

    gamma0 = args.gamma0
    calibration_info = {}
    if args.calibrate:
        print("calibrating gamma0 against F2 = 6.34 ...")
        gamma0, cal_fit = calibrate_gamma0(loop, target_f2=6.34, gamma0_init=args.gamma0)
        calibration_info = {"gamma0": gamma0, "fitted_f2": cal_fit.coefficient("F2")}
        print(f"  gamma0 = {gamma0:.4f} (fitted F2 = {calibration_info['fitted_f2']:.3f})")
    base_noise = high_temperature_noise(0.0, gamma0=gamma0)

    print("noiseless fidelity curve ...")
    ideal = sweep(loop, grid, [0.0], noise=base_noise)[0]
    (out / "ideal_curve.csv").write_text(sweep_curve_to_csv(ideal))

    print("noisy fidelity curves ...")
    for curve in sweep(loop, grid, list(NOISY_LAMBDAS[1:]), noise=base_noise):
        name = f"noisy_curve_lambda2_{curve.lambda_sq:.12g}.csv"
        (out / name).write_text(sweep_curve_to_csv(curve))
        print(f"  wrote {name}")

    print("optimal working points, small couplings ...")
    small = optimal_point_table(loop, base_noise, list(SMALL_LAMBDAS))
    print("optimal working points, large couplings ...")
    large = optimal_point_table(loop, base_noise, list(LARGE_LAMBDAS))

    tau1 = optimal_time(1, 1, 1.0)
    f_small = [(p.lambda_sq, p.f_star) for p in small]
    t_small = [(p.lambda_sq, p.tau_star) for p in small]
    both = sorted(set(f_small + [(p.lambda_sq, p.f_star) for p in large]))
    t_both = sorted(set(t_small + [(p.lambda_sq, p.tau_star) for p in large]))
    fits = {
        "f_linear": fit_noise_response(f_small, "f_linear"),
        "tau_linear": fit_noise_response(t_small, "tau_linear", intercept=tau1),
        "f_quartic": fit_noise_response(both, "f_quartic"),
        "tau_cubic": fit_noise_response(t_both, "tau_cubic", intercept=tau1),
    }
    slope = f_of_tau_relation(fits["f_linear"], fits["tau_linear"])
    doc = {
        "settings": {
            "gamma0": gamma0,
            "calibration": calibration_info,
        },
        "small_coupling_rows": [p.to_dict() for p in small],
        "large_coupling_rows": [p.to_dict() for p in large],
        "fits": {k: v.to_dict() for k, v in fits.items()},
        "f_of_tau_slope": slope,
    }
    (out / "optimal_points_and_fits.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  F2 = {fits['f_linear'].coefficient('F2'):.4f}, "
          f"tau2 = {fits['tau_linear'].coefficient('tau2'):.3f}, "
          f"F*(tau*) slope = {slope:.4f}")

    print("robustness table ...")
    rows = [{"lambda_sq": 0.0, "robustness": 0.0}]
    for lam in LARGE_LAMBDAS:
        r = robustness(loop, base_noise.with_lambda_sq(lam))
        rows.append({"lambda_sq": lam, "robustness": r})
        print(f"  lambda^2 = {lam}: R = {r:.5f}")
    (out / "robustness.json").write_text(
        json.dumps({"settings": doc["settings"], "rows": rows}, indent=2) + "\n"
    )

    print(f"done in {time.time() - t_start:.0f}s; outputs in {out}/")


if __name__ == "__main__":
    main()
