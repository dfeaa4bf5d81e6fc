"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The noise-response and
robustness criteria integrate the master equation many times and take a
few minutes in total on one core.
"""

import numpy as np
import pytest

from tripod_holonomy import (
    adiabatic_holonomy,
    calibrate_noise,
    find_optimal_point,
    fit_noise_response,
    f_of_tau_relation,
    high_temperature_noise,
    loop_channel,
    loop_propagator,
    mean_fidelity,
    optimal_time,
    robustness,
    sweep,
    wedge_loop,
    with_total_time,
)
from tripod_holonomy import analysis
from tripod_holonomy.analysis import optimal_point_table
from tripod_holonomy.lindblad import DEFAULT_GAMMA0, default_step_count
from tripod_holonomy.propagators import dark_block

from oracles import fit_residuals, holonomy_path_ordered, magnus_propagator, standard_not_loop

NOT_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
CURVE_LAMBDAS = (0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)
FIT_LAMBDAS = tuple(np.linspace(1e-4, 1e-3, 7))
ROBUSTNESS_LAMBDAS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_noise_table():
    """Optimal points over the small-coupling grid at the default rates."""
    loop = standard_not_loop(1.0, 1.0)
    noise = high_temperature_noise(0.0, gamma0=DEFAULT_GAMMA0)
    return optimal_point_table(loop, noise, list(FIT_LAMBDAS))


def test_revival_exactness(monkeypatch):
    loop = standard_not_loop(1.0, 1.0)
    noise = high_temperature_noise(0.0)
    worst_f, worst_tau = 0.0, 0.0
    for k in (1, 2, 3):
        tau_k = optimal_time(k, 1, 1.0)
        f = mean_fidelity(with_total_time(loop, tau_k), noise)
        worst_f = max(worst_f, abs(f - 1.0))
        # the search window is PEAK_WINDOW times tau*_1: centre it on tau*_k, +-10%
        ratio = tau_k / optimal_time(1, 1, 1.0)
        monkeypatch.setattr(analysis, "PEAK_WINDOW", (0.9 * ratio, 1.1 * ratio))
        point = find_optimal_point(loop, noise)
        worst_tau = max(worst_tau, abs(point.tau_star - tau_k))
    _report(
        "revival exactness (k=1,2,3)",
        worst_f <= 1e-6 and worst_tau <= 1e-3,
        f"max |F-1| = {worst_f:.2e}, max |d(Omega tau*)| = {worst_tau:.2e}",
    )


def test_generalized_revivals():
    noise = high_temperature_noise(0.0)
    c = np.cos(np.pi / 4)
    eighth_turn = np.array([[c, c], [-c, c]])
    worst = 0.0
    for k in (1, 2):
        tau = optimal_time(k, 2, 1.0)
        loop = wedge_loop(2, 1.0, tau)
        np.testing.assert_allclose(adiabatic_holonomy(loop), eighth_turn, atol=1e-12)
        worst = max(worst, abs(mean_fidelity(loop, noise) - 1.0))
        block_err = np.linalg.norm(
            dark_block(loop_propagator(loop).matrix, loop) - eighth_turn
        )
        worst = max(worst, block_err)
    _report(
        "generalized revivals (n=2, k=1,2) against exp(i sigma_y pi/4)",
        worst <= 1e-6,
        f"max deviation = {worst:.2e}",
    )


def test_holonomy():
    loop = standard_not_loop(1.0, 3.0)
    closed_err = np.abs(adiabatic_holonomy(loop) - NOT_BLOCK).max()
    numeric_err = np.linalg.norm(holonomy_path_ordered(loop, 2000) - NOT_BLOCK)
    _report(
        "holonomy of the standard loop",
        closed_err <= 1e-12 and numeric_err <= 1e-6,
        f"closed form |err| = {closed_err:.2e}, path-ordered |err| = {numeric_err:.2e}",
    )


def test_oracle_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        omega_tau = float(rng.uniform(5.0, 40.0))
        loop = wedge_loop(n, 1.0, omega_tau)
        dist = np.linalg.norm(loop_propagator(loop).matrix - magnus_propagator(loop, 2000))
        worst = max(worst, dist)
    # convergence order from one step-halving pair, above the rounding floor
    # that 4,000 steps approach (1.3e-12)
    loop = wedge_loop(2, 1.0, 17.3)
    exact = loop_propagator(loop).matrix
    e1 = np.linalg.norm(exact - magnus_propagator(loop, 1000))
    e2 = np.linalg.norm(exact - magnus_propagator(loop, 2000))
    order = np.log2(e1 / e2)
    _report(
        "oracle equivalence (20 samples, Magnus-4 at 2,000 steps) and 4th-order convergence",
        worst <= 1e-9 and 3.6 <= order <= 4.4,
        f"max distance = {worst:.2e}, observed order = {order:.2f}",
    )


def test_master_equation_sanity():
    tau1 = optimal_time(1, 1, 1.0)
    loop = standard_not_loop(1.0, tau1)
    # unitary limit
    u = loop_propagator(loop).matrix
    channel = loop_channel(loop, high_temperature_noise(0.0))
    psi = np.array([0.6, 0.8j, 0.0, 0.0])
    sigma0 = np.outer(psi, psi.conj())
    unitary_err = np.linalg.norm(channel.apply(sigma0) - u @ sigma0 @ u.conj().T)
    # trace preservation on a noisy run
    noisy = loop_channel(loop, high_temperature_noise(0.03, gamma0=DEFAULT_GAMMA0))
    trace_err = abs(np.trace(noisy.apply(sigma0)) - 1.0)
    # pointwise ordering across the coupling list on a shared grid
    grid = np.array([10.0, 14.0, tau1, 23.0, 30.0, 37.4, 45.0, 56.35])
    curves = sweep(
        standard_not_loop(1.0, 1.0), grid, list(CURVE_LAMBDAS),
        noise=high_temperature_noise(0.0, gamma0=DEFAULT_GAMMA0),
    )
    values = np.stack(curves)
    ordered = bool(np.all(np.diff(values, axis=0) <= 1e-12))
    # step-halving stability of the fidelity
    noise = high_temperature_noise(0.01, gamma0=DEFAULT_GAMMA0)
    f_default = mean_fidelity(loop, noise)
    steps = 2 * default_step_count(loop.omega_scale * loop.total_time)
    f_fine = mean_fidelity(loop, noise, steps=steps)
    richardson = abs(f_default - f_fine)
    _report(
        "master-equation sanity (unitary limit, trace, ordering, convergence)",
        unitary_err <= 1e-7 and trace_err <= 1e-8 and ordered and richardson <= 1e-7,
        f"unitary err = {unitary_err:.2e}, trace err = {trace_err:.2e}, "
        f"ordered = {ordered}, step-halving shift = {richardson:.2e}",
    )


def test_noise_response_laws(default_noise_table):
    points = default_noise_table
    tau1 = optimal_time(1, 1, 1.0)
    f_points = [(p.lambda_sq, p.f_star) for p in points]
    t_points = [(p.lambda_sq, p.tau_star) for p in points]
    f_fit = fit_noise_response(f_points, "f_linear")
    t_fit = fit_noise_response(t_points, "tau_linear", intercept=tau1)
    f_resid = np.abs(fit_residuals(f_fit, f_points)).max()
    t_resid = np.abs(fit_residuals(t_fit, t_points)).max()
    f2 = f_fit.coefficient("F2")
    tau2 = t_fit.coefficient("tau2")
    monotone = bool(
        np.all(np.diff([p.f_star for p in points]) < 0)
        and np.all(np.diff([p.tau_star for p in points]) < 0)
    )
    form_ok = f_resid <= 1e-4 and t_resid <= 1e-4 and f2 > 0 and tau2 > 0 and monotone

    # calibration mode: pick gamma0 so the fitted F2 lands on the reference value
    loop = standard_not_loop(1.0, 1.0)
    seed_gamma0 = DEFAULT_GAMMA0 * 6.34 / f2
    scale, cal_fit, _ = calibrate_noise(loop, high_temperature_noise(0.0, gamma0=seed_gamma0), 6.34)
    gamma0 = seed_gamma0 * scale
    cal_f2 = cal_fit.coefficient("F2")
    cal_ok = abs(cal_f2 - 6.34) <= 0.05 * 6.34
    cal_noise = high_temperature_noise(0.005, gamma0=gamma0)
    peak = find_optimal_point(loop, cal_noise)
    high_f_ok = peak.f_star > 0.9
    _report(
        "noise-response laws (linear fits, calibrated working point)",
        form_ok and cal_ok and high_f_ok,
        f"max|res| F = {f_resid:.1e}, tau = {t_resid:.1e}; F2 = {f2:.3f}, "
        f"tau2 = {tau2:.2f}; calibrated gamma0 = {gamma0:.4f} (F2 = {cal_f2:.3f}); "
        f"F*(0.005) = {peak.f_star:.4f}",
    )


def test_robustness_criterion():
    loop = standard_not_loop(1.0, 1.0)
    base = high_temperature_noise(0.0, gamma0=DEFAULT_GAMMA0)

    def r_at(lam):
        noise = base.with_lambda_sq(lam)
        return robustness(loop, noise, find_optimal_point(loop, noise).f_star)

    r_zero = r_at(0.0)
    grid_r = [r_at(lam) for lam in ROBUSTNESS_LAMBDAS]
    increasing = bool(np.all(np.diff(grid_r) > 0))
    small = [0.0, 0.00125, 0.0025, 0.00375, 0.005]
    small_r = [0.0 if lam == 0.0 else (
        grid_r[0] if lam == 0.005 else r_at(lam)
    ) for lam in small]
    slope, offset = np.polyfit(small, small_r, 1)
    resid = np.abs(np.array(small_r) - (slope * np.array(small) + offset)).max()
    r_range = max(small_r) - min(small_r)
    linear_ok = resid <= 0.05 * r_range
    _report(
        "robustness (zero at no noise, increasing, linear regime)",
        abs(r_zero) <= 1e-6 and increasing and linear_ok,
        f"R(0) = {r_zero:.2e}, grid R = {np.round(grid_r, 4).tolist()}, "
        f"linear residual = {resid:.2e} vs 5% of range = {0.05 * r_range:.2e}",
    )


def test_fit_engine_oracle():
    lams = np.array(FIT_LAMBDAS)
    tau1 = optimal_time(1, 1, 1.0)
    ok = True
    details = []
    cases = [
        ("f_linear", 1 - 6.34 * lams, None, {"F2": 6.34}),
        ("f_quartic", 1 - 6.34 * lams + 29.93 * lams**2, None, {"F2": 6.34, "F4": 29.93}),
        ("tau_linear", tau1 - 59.40 * lams, tau1, {"tau2": 59.40}),
        (
            "tau_cubic",
            tau1 - 59.40 * lams + 990.65 * lams**2 - 7655.95 * lams**3,
            tau1,
            {"tau2": 59.40, "tau4": 990.65, "tau6": 7655.95},
        ),
    ]
    for model, y, intercept, expected in cases:
        fit = fit_noise_response(list(zip(lams, y)), model, intercept=intercept)
        for name, value in expected.items():
            rel = abs(fit.coefficient(name) - value) / abs(value)
            ok = ok and rel <= 1e-8
            details.append(f"{model}.{name} rel err {rel:.1e}")
    slope = 6.34 / 59.40
    f_fit = fit_noise_response(list(zip(lams, 1 - 6.34 * lams)), "f_linear")
    t_fit = fit_noise_response(
        list(zip(lams, tau1 - 59.40 * lams)), "tau_linear", intercept=tau1
    )
    slope_err = abs(f_of_tau_relation(f_fit, t_fit) - slope)
    ok = ok and slope_err <= 1e-10 and round(slope, 2) == 0.11
    _report(
        "fit-engine oracle (reference coefficients recovered)",
        ok,
        "; ".join(details[:4]) + f"; slope err = {slope_err:.1e}",
    )
