from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tripod_holonomy import (
    adiabatic_gate,
    f_of_tau_relation,
    find_optimal_point,
    fit_noise_response,
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
from tripod_holonomy.analysis import PEAK_TOL, sweep_curve_to_csv
from tripod_holonomy.errors import (
    ModelMismatch,
    NoPeakInWindow,
    StepCountTooSmall,
    UnderdeterminedFit,
)
from tripod_holonomy.lindblad import NoiseModel, default_step_count
from tripod_holonomy.loops import loop_from_dict
from tripod_holonomy.propagators import dark_block, start_frame

from conftest import UNEVEN_LOOP_DOC, per_point_fidelity, six_state_fidelities
from oracles import fit_residuals, standard_not_loop

OMEGA_TAU_1 = optimal_time(1, 1, 1.0)
LAMBDA_GRID = np.linspace(1e-4, 1e-3, 7)


def spiral_density_matrices(n, dark_basis):
    """Golden-spiral lattice of n pure dark-qubit states, as density
    matrices: the dense-sampling reference for the exact average."""
    i = np.arange(n)
    theta = np.arccos(1.0 - 2.0 * (i + 0.5) / n)
    phi = 2.0 * np.pi * i * (np.sqrt(5.0) - 1.0) / 2.0
    amps = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
    psi = amps @ dark_basis.T
    return np.einsum("ni,nj->nij", psi, psi.conj())


def golden_section_peak(fn, lo, hi, tol):
    """Dense reference for the peak search: golden section on (lo, hi)
    down to an interval of width tol."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc > fd else (d, fd)


class TestExactBlochAverage:
    @pytest.mark.parametrize("omega_tau", [3.94, 10.0, OMEGA_TAU_1, 21.0, 33.3])
    def test_noiseless_matches_closed_form(self, omega_tau, no_noise):
        # Nielsen 2002: the Haar average of |<psi|M|psi>|^2 over a qubit is
        # (Tr M M^dag + |Tr M|^2) / 6, with M the dark block of T^dag U.
        loop = standard_not_loop(1.0, omega_tau)
        t = adiabatic_gate(loop).matrix
        m = dark_block(t.conj().T @ loop_propagator(loop).matrix, loop)
        exact = (np.trace(m @ m.conj().T).real + abs(np.trace(m)) ** 2) / 6.0
        assert abs(mean_fidelity(loop, no_noise) - exact) <= 1e-12

    @pytest.mark.parametrize("lam", [0.005, 0.05])
    @pytest.mark.parametrize("omega_tau", [10.0, 18.25, 30.0])
    def test_noisy_matches_dense_spiral(self, omega_tau, lam):
        loop = standard_not_loop(1.0, omega_tau)
        noise = high_temperature_noise(lam)
        t = adiabatic_gate(loop).matrix
        rhos = spiral_density_matrices(2000, start_frame(loop).dark)
        outputs = loop_channel(loop, noise).apply(rhos)
        dense = np.mean(np.einsum("nij,nji->n", t @ rhos @ t.conj().T, outputs).real)
        assert abs(mean_fidelity(loop, noise) - dense) <= 1e-6


class TestMeanFidelity:
    def test_unity_at_first_revival(self, not_loop, no_noise):
        assert abs(mean_fidelity(not_loop, no_noise) - 1.0) <= 1e-6

    def test_per_state_unity_at_revival(self, not_loop):
        fids = six_state_fidelities(not_loop, loop_propagator(not_loop).matrix)
        assert np.all(np.abs(fids - 1.0) <= 1e-6)

    def test_large_time_approaches_unity(self, no_noise):
        loop = standard_not_loop(1.0, 1000.37)
        assert mean_fidelity(loop, no_noise) >= 0.99

    def test_oscillations_between_revivals(self, no_noise):
        dip = standard_not_loop(1.0, 0.5 * (OMEGA_TAU_1 + optimal_time(2, 1, 1.0)))
        peak = standard_not_loop(1.0, OMEGA_TAU_1)
        assert mean_fidelity(dip, no_noise) < mean_fidelity(peak, no_noise)


class TestBatchedNoiselessCurve:
    SILENT = NoiseModel(lambda_sq=0.01, gamma={0: 0.0})

    @pytest.mark.parametrize("grid", [np.linspace(0.25, 60.25, 41), np.array([18.25])],
                             ids=["41-points", "one-point"])
    @pytest.mark.parametrize("loop", [
        wedge_loop(1, 1.0, 1.0), wedge_loop(2, 1.0, 1.0), wedge_loop(3, 1.0, 1.0),
        wedge_loop(1, 1.7, 1.0), loop_from_dict(UNEVEN_LOOP_DOC),
    ], ids=["wedge1", "wedge2", "wedge3", "omega1.7", "loop-file"])
    def test_matches_per_point_path(self, loop, grid, no_noise):
        batched = mean_fidelity(loop, no_noise, omega_tau=grid)
        assert batched.shape == grid.shape
        per_point = [per_point_fidelity(loop, ot) for ot in grid]
        assert np.abs(batched - per_point).max() <= 1e-13
        assert np.array_equal(mean_fidelity(loop, self.SILENT, omega_tau=grid), batched)

    def test_matches_closed_form(self, no_noise):
        # (Tr M M^dag + |Tr M|^2) / 6 with M the dark block of T^dag U
        loop, grid = wedge_loop(2, 1.0, 1.0), np.array([3.94, 17.0, 33.3])
        batched = mean_fidelity(loop, no_noise, omega_tau=grid)
        for ot, f in zip(grid, batched):
            run = with_total_time(loop, ot)
            m = dark_block(adiabatic_gate(run).matrix.conj().T @ loop_propagator(run).matrix, run)
            assert abs(f - (np.trace(m @ m.conj().T).real + abs(np.trace(m)) ** 2) / 6) <= 1e-12

    def test_dissipative_grid_matches_per_point_calls(self):
        noise, grid = high_temperature_noise(0.02), np.array([6.0, 13.3, 18.25, 30.1])
        for loop in (wedge_loop(1, 1.0, 1.0), wedge_loop(2, 1.3, 1.0)):
            batched = mean_fidelity(loop, noise, steps=300, omega_tau=grid)
            per_point = [
                mean_fidelity(with_total_time(loop, ot / loop.omega_scale), noise, steps=300)
                for ot in grid
            ]
            assert batched.shape == grid.shape
            assert np.array_equal(batched, per_point)
            assert np.array_equal(mean_fidelity(loop, noise, steps=300, omega_tau=grid[1:2]),
                                  batched[1:2])

    def test_dissipative_grid_defaults_steps_per_point(self, monkeypatch):
        used = []

        def recording(run, noise, steps=None):
            used.append(default_step_count(run) if steps is None else steps)
            return loop_channel(run, noise, steps)

        monkeypatch.setattr(analysis, "loop_channel", recording)
        grid = np.array([6.0, 120.0])
        mean_fidelity(wedge_loop(1, 1.0, 1.0), high_temperature_noise(0.02), omega_tau=grid)
        assert used == [144, 288]

    def test_range_check_applies_to_each_point(self, monkeypatch):
        # the middle point's map is scaled by 1.5^2 in both engines, so its
        # fidelity leaves [0, 1]
        def scaled_channel(run, noise, steps=None):
            channel = loop_channel(run, noise, 200)
            return replace(channel, phi=next(scales) ** 2 * channel.phi)

        def scaled_propagator(loop, omega_tau):
            stack = loop_propagator(loop, omega_tau).matrix
            return SimpleNamespace(matrix=stack * np.array([1.0, 1.5, 1.0])[:, None, None])

        monkeypatch.setattr(analysis, "loop_channel", scaled_channel)
        monkeypatch.setattr(analysis, "loop_propagator", scaled_propagator)
        grid = np.array([17.0, OMEGA_TAU_1, 19.0])
        for noise in (high_temperature_noise(0.0), high_temperature_noise(0.02)):
            scales = iter([1.0, 1.5, 1.0])
            with pytest.raises(StepCountTooSmall, match="outside"):
                mean_fidelity(wedge_loop(1, 1.0, 1.0), noise, omega_tau=grid)


class TestSweep:
    @pytest.mark.parametrize("noise", [
        high_temperature_noise(0.0),
        NoiseModel(lambda_sq=0.0, gamma={0: 0.0}),
        NoiseModel(lambda_sq=0.0, gamma={0: 0.3, 1: 0.1}, lamb_shift={1: 0.2}),
    ], ids=["flat", "silent-table", "uneven"])
    @pytest.mark.parametrize("lambdas", [[0.0, 0.01, 0.02], []], ids=["three", "none"])
    def test_one_task_and_one_grid_call_per_curve(self, monkeypatch, noise, lambdas):
        handed, grids = [], []

        def recording(fn, items):
            handed.append(list(items))
            return [fn(item) for item in handed[-1]]

        def grid_call(loop, noise, steps, omega_tau):
            grids.append(omega_tau)
            return mean_fidelity(loop, noise, steps, omega_tau)

        monkeypatch.setattr(analysis, "ordered_map", recording)
        monkeypatch.setattr(analysis, "mean_fidelity", grid_call)
        grid = np.linspace(14.0, 22.0, 5)
        curves = sweep(standard_not_loop(1.0, 1.0), grid, lambdas, steps=60, noise=noise)
        assert len(handed) == 1 and len(handed[0]) == len(lambdas)
        assert len(grids) == len(lambdas)
        assert all(np.array_equal(g, grid) for g in grids)
        assert [c.lambda_sq for c in curves] == lambdas
        assert all(c.mean_fidelity.shape == grid.shape for c in curves)

    def test_noiseless_maxima_at_revivals(self, no_noise):
        revivals = [optimal_time(k, 1, 1.0) for k in (1, 2, 3)]
        grid = np.unique(np.concatenate([np.linspace(10, 60, 11), revivals]))
        curves = sweep(standard_not_loop(1.0, 1.0), grid, [0.0])
        curve = curves[0]
        for r in revivals:
            idx = int(np.argmin(np.abs(curve.omega_tau - r)))
            assert curve.mean_fidelity[idx] >= 1.0 - 1e-6

    def test_pointwise_ordering_in_coupling(self):
        grid = np.linspace(14.0, 22.0, 5)
        noise = high_temperature_noise(0.0, gamma0=0.5)
        curves = sweep(standard_not_loop(1.0, 1.0), grid, [0.005, 0.01], noise=noise)
        assert np.all(curves[1].mean_fidelity <= curves[0].mean_fidelity + 1e-12)

    def test_empty_lambda_list(self):
        out = sweep(standard_not_loop(1.0, 1.0), np.array([10.0, 12.0]), [])
        assert out == []

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep(standard_not_loop(1.0, 1.0), np.array([12.0, 10.0]), [0.0])

    def test_csv_format(self, no_noise):
        curves = sweep(standard_not_loop(1.0, 1.0), np.array([18.0, 19.0]), [0.0])
        text = sweep_curve_to_csv(curves[0])
        lines = text.strip().split("\n")
        assert lines[0] == "omega_tau,mean_fidelity"
        assert len(lines) == 3
        for row in lines[1:]:
            float(row.split(",")[0]), float(row.split(",")[1])


class TestFindOptimalPoint:
    def test_noiseless_peak_matches_closed_form(self, no_noise):
        pt = find_optimal_point(standard_not_loop(1.0, 1.0), no_noise)
        assert abs(pt.tau_star - OMEGA_TAU_1) <= 1e-3
        assert pt.f_star >= 1.0 - 1e-6
        assert pt.lambda_sq == 0.0

    def test_noisy_peak_lower_and_earlier(self):
        noise = high_temperature_noise(0.01, gamma0=0.5)
        pt = find_optimal_point(standard_not_loop(1.0, 1.0), noise)
        assert pt.tau_star < OMEGA_TAU_1
        assert pt.f_star < 1.0

    def test_wedge2_takes_the_peak_nearest_the_window_centre(self):
        # The +-30% window around tau*_1 of wedge:2 holds several maxima, and
        # at lambda^2 = 0.05 its lower edge is above the first-revival peak.
        loop, noise = wedge_loop(2, 1.0, 1.0), high_temperature_noise(0.05)
        tau1 = optimal_time(1, 2, 1.0)
        pt = find_optimal_point(loop, noise)
        assert 0.9 * tau1 < pt.bracket[0] < pt.tau_star < pt.bracket[1] < tau1
        assert pt.f_star == pytest.approx(0.7583, abs=1e-3)
        edge = mean_fidelity(with_total_time(loop, 0.7 * tau1), noise)
        assert edge > pt.f_star

    def test_standard_search_makes_at_most_12_integrations(self, monkeypatch):
        seen = []

        def recording(loop, noise, steps=None):
            seen.append(steps)
            return loop_channel(loop, noise, steps)

        monkeypatch.setattr(analysis, "loop_channel", recording)
        find_optimal_point(standard_not_loop(1.0, 1.0), high_temperature_noise(1e-3))
        assert 1 <= len(seen) <= 12
        assert len(set(seen)) == 1

    @pytest.mark.parametrize("n, lam, window", [
        (1, 1e-3, (0.9, 1.05)),
        (1, 0.05, (0.9, 1.05)),
        (2, 0.05, (0.9, 1.0)),
    ])
    def test_matches_a_dense_golden_section(self, n, lam, window):
        # Each window holds one maximum, the one the search starts on.
        loop, noise = wedge_loop(n, 1.0, 1.0), high_temperature_noise(lam)
        tau1 = optimal_time(1, n, 1.0)
        steps = default_step_count(with_total_time(loop, tau1))
        x_ref, f_ref = golden_section_peak(
            lambda x: mean_fidelity(with_total_time(loop, x), noise, steps=steps),
            window[0] * tau1,
            window[1] * tau1,
            1e-8,
        )
        pt = find_optimal_point(loop, noise, steps=steps)
        assert abs(pt.tau_star - x_ref) <= PEAK_TOL <= 1e-5
        assert abs(pt.f_star - f_ref) <= 1e-12

    def test_monotone_window_raises(self, no_noise):
        with pytest.raises(NoPeakInWindow):
            find_optimal_point(
                standard_not_loop(1.0, 1.0), no_noise, window=(10.0, 14.0)
            )


class TestFitEngine:
    def test_linear_recovery_exact(self):
        fit = fit_noise_response(list(zip(LAMBDA_GRID, 1 - 6.34 * LAMBDA_GRID)), "f_linear")
        assert abs(fit.coefficient("F2") - 6.34) <= 1e-10
        assert fit.residual_norm <= 1e-12

    def test_quartic_recovery(self):
        y = 1 - 6.34 * LAMBDA_GRID + 29.93 * LAMBDA_GRID**2
        fit = fit_noise_response(list(zip(LAMBDA_GRID, y)), "f_quartic")
        assert abs(fit.coefficient("F2") - 6.34) <= 1e-8
        assert abs(fit.coefficient("F4") - 29.93) <= 1e-6

    def test_tau_cubic_recovery(self):
        y = OMEGA_TAU_1 - 59.40 * LAMBDA_GRID + 990.65 * LAMBDA_GRID**2 - 7655.95 * LAMBDA_GRID**3
        fit = fit_noise_response(list(zip(LAMBDA_GRID, y)), "tau_cubic", intercept=OMEGA_TAU_1)
        assert abs(fit.coefficient("tau2") - 59.40) <= 1e-6
        assert abs(fit.coefficient("tau4") - 990.65) <= 1e-3
        assert abs(fit.coefficient("tau6") - 7655.95) <= 1.0e0

    def test_constant_data_gives_zero_coefficients(self):
        fit = fit_noise_response([(x, 1.0) for x in LAMBDA_GRID], "f_linear")
        assert abs(fit.coefficient("F2")) <= 1e-12

    def test_residuals_reproducible(self):
        rng = np.random.default_rng(7)
        y = 1 - 3.0 * LAMBDA_GRID + rng.normal(scale=1e-6, size=len(LAMBDA_GRID))
        points = list(zip(LAMBDA_GRID, y))
        fit = fit_noise_response(points, "f_linear")
        np.testing.assert_allclose(
            np.linalg.norm(fit_residuals(fit, points)), fit.residual_norm, rtol=1e-9
        )
        assert fit.coefficients[0].stderr > 0

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedFit):
            fit_noise_response([(1e-4, 1.0)], "f_linear")

    @pytest.mark.parametrize("model, lambdas", [
        ("f_linear", [0.0] * 7),
        ("f_quartic", [1e-3] * 4),
    ], ids=["all-zero", "quartic-one-value"])
    def test_degenerate_lambdas_are_underdetermined(self, model, lambdas):
        with pytest.raises(UnderdeterminedFit):
            fit_noise_response([(x, 1.0 - 6.34 * x) for x in lambdas], model)

    def test_unknown_model(self):
        with pytest.raises(ModelMismatch):
            fit_noise_response([(1e-4, 1.0), (2e-4, 0.9)], "cubic-spline")

    def test_free_intercept_reports_extra_coefficient(self):
        y = 0.998 - 6.0 * LAMBDA_GRID
        fit = fit_noise_response(list(zip(LAMBDA_GRID, y)), "f_linear", free_intercept=True)
        assert abs(fit.coefficient("intercept") - 0.998) <= 1e-9
        assert abs(fit.coefficient("F2") - 6.0) <= 1e-6


class TestFOfTauRelation:
    def test_reference_coefficients(self):
        f_fit = fit_noise_response(list(zip(LAMBDA_GRID, 1 - 6.34 * LAMBDA_GRID)), "f_linear")
        t_fit = fit_noise_response(
            list(zip(LAMBDA_GRID, OMEGA_TAU_1 - 59.40 * LAMBDA_GRID)),
            "tau_linear",
            intercept=OMEGA_TAU_1,
        )
        slope = f_of_tau_relation(f_fit, t_fit)
        assert slope == pytest.approx(6.34 / 59.40, abs=1e-9)
        assert round(slope, 2) == 0.11

    def test_zero_f2_gives_zero_slope(self):
        f_fit = fit_noise_response([(x, 1.0) for x in LAMBDA_GRID], "f_linear")
        t_fit = fit_noise_response(
            list(zip(LAMBDA_GRID, OMEGA_TAU_1 - 10.0 * LAMBDA_GRID)),
            "tau_linear",
            intercept=OMEGA_TAU_1,
        )
        assert f_of_tau_relation(f_fit, t_fit) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonlinear_models(self):
        y = 1 - 6.34 * LAMBDA_GRID + 29.93 * LAMBDA_GRID**2
        q_fit = fit_noise_response(list(zip(LAMBDA_GRID, y)), "f_quartic")
        t_fit = fit_noise_response(
            list(zip(LAMBDA_GRID, OMEGA_TAU_1 - 10.0 * LAMBDA_GRID)),
            "tau_linear",
            intercept=OMEGA_TAU_1,
        )
        with pytest.raises(ModelMismatch):
            f_of_tau_relation(q_fit, t_fit)


def robustness_at(loop, noise, steps=None):
    """R with F* from the peak search at the same noise and steps."""
    f_star = find_optimal_point(loop, noise, steps=steps).f_star
    return robustness(loop, noise, f_star, steps=steps)


class TestRobustness:
    def test_zero_coupling_gives_zero(self, no_noise):
        r = robustness_at(standard_not_loop(1.0, 1.0), no_noise)
        assert abs(r) <= 1e-6

    def test_positive_for_noisy_gate(self):
        noise = high_temperature_noise(0.02, gamma0=0.5)
        r = robustness_at(standard_not_loop(1.0, 1.0), noise)
        assert r > 0.0

    def test_every_integration_uses_the_given_steps(self, monkeypatch):
        seen = []

        def recording(loop, noise, steps=None):
            seen.append(steps)
            return loop_channel(loop, noise, steps)

        monkeypatch.setattr(analysis, "loop_channel", recording)
        robustness_at(standard_not_loop(1.0, 1.0), high_temperature_noise(0.02), steps=400)
        assert seen and set(seen) == {400}
