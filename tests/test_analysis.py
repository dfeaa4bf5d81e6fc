import itertools
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
from tripod_holonomy.analysis import PEAK_TOL, PEAK_WINDOW
from tripod_holonomy.cli import _sweep_csv
from tripod_holonomy.errors import (
    InvalidDuration,
    ModelMismatch,
    NoPeakInWindow,
    StepCountTooSmall,
    UnderdeterminedFit,
)
from tripod_holonomy.lindblad import NoiseModel, _channel_plan, default_step_count
from tripod_holonomy.loops import loop_from_dict
from tripod_holonomy.propagators import dark_block, start_frame

from conftest import UNEQUAL_NOISE, UNEVEN_LOOP_DOC, per_point_fidelity, six_state_fidelities
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
        flat = high_temperature_noise(0.02)
        loops = (wedge_loop(1, 1.0, 1.0), wedge_loop(2, 1.3, 1.0))
        inputs = [
            (flat, 300, np.array([6.0, 13.3, 18.25, 30.1])),
            # past Omega*tau 60.4 the points' own default counts differ; by
            # default each takes the count of the grid's largest Omega*tau
            (flat, None, np.array([6.0, 30.0, 59.0, 61.0, 80.0, 120.0])),
            # unequal rates with Lamb shifts, across that boundary
            (UNEQUAL_NOISE.with_lambda_sq(0.05), None, np.array([59.0, 60.0, 61.0])),
        ]
        for (noise, steps, grid), loop in itertools.product(inputs, loops):
            batched = mean_fidelity(loop, noise, steps=steps, omega_tau=grid)
            count = default_step_count(grid[-1]) if steps is None else steps
            per_point = [
                mean_fidelity(with_total_time(loop, ot / loop.omega_scale), noise, steps=count)
                for ot in grid
            ]
            assert batched.shape == grid.shape
            assert np.array_equal(batched, per_point)
            assert np.array_equal(mean_fidelity(loop, noise, steps=count, omega_tau=grid[1:2]),
                                  batched[1:2])

    @pytest.mark.parametrize("lambda_sq", [0.0, 0.02], ids=["exact", "channel"])
    def test_grid_matches_one_point_grids(self, lambda_sq):
        # the peak search mixes a three-point opening grid with one-point
        # grids, so both must give the same bits
        noise, grid = high_temperature_noise(lambda_sq), np.array([17.5, 18.25, 19.0])
        for loop in (wedge_loop(1, 1.0, 1.0), wedge_loop(3, 1.7, 1.0)):
            batched = mean_fidelity(loop, noise, steps=300, omega_tau=grid)
            single = [mean_fidelity(loop, noise, steps=300, omega_tau=[ot]) for ot in grid]
            assert np.array_equal(batched, np.concatenate(single))

    @pytest.mark.parametrize("lambda_sq", [0.0, 0.02], ids=["exact", "channel"])
    def test_empty_grid_is_rejected_on_either_engine(self, lambda_sq):
        with pytest.raises(InvalidDuration, match="non-empty"):
            mean_fidelity(wedge_loop(1, 1.0, 1.0), high_temperature_noise(lambda_sq),
                          omega_tau=np.array([]))

    def test_dissipative_grid_defaults_to_its_longest_loops_steps(self, monkeypatch):
        calls = []

        def recording(run, noise, steps=None, omega_tau=None):
            channel = loop_channel(run, noise, steps, omega_tau)
            calls.append((steps, omega_tau, channel.steps))
            return channel

        monkeypatch.setattr(analysis, "loop_channel", recording)
        loop, grid = wedge_loop(1, 1.0, 1.0), np.array([6.0, 120.0])
        mean_fidelity(loop, high_temperature_noise(0.02), omega_tau=grid)
        (steps, omega_tau, taken), = calls
        assert steps is None and omega_tau is grid
        defaults = [default_step_count(ot) for ot in grid]
        assert defaults == [144, 288]
        # both points take 288 steps; the first arc does not move and takes
        # one exponential at each, the others their shares: 1 + 96 + 96
        assert taken == 2 * 193

    def test_range_check_applies_to_each_point(self, monkeypatch):
        # the middle point's map is scaled by 1.5^2 in both engines, so its
        # fidelity leaves [0, 1]
        def scaled_channel(run, noise, steps=None, omega_tau=None):
            channel = loop_channel(run, noise, 200, omega_tau)
            return replace(channel, phi=scales[:, None, None] ** 2 * channel.phi)

        def scaled_propagator(loop, omega_tau):
            stack = loop_propagator(loop, omega_tau).matrix
            return SimpleNamespace(matrix=stack * np.array([1.0, 1.5, 1.0])[:, None, None])

        monkeypatch.setattr(analysis, "loop_channel", scaled_channel)
        monkeypatch.setattr(analysis, "loop_propagator", scaled_propagator)
        grid = np.array([17.0, OMEGA_TAU_1, 19.0])
        scales = np.array([1.0, 1.5, 1.0])
        for noise in (high_temperature_noise(0.0), high_temperature_noise(0.02)):
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
        assert len(curves) == len(lambdas)
        assert all(c.shape == grid.shape for c in curves)

    def test_noiseless_maxima_at_revivals(self, no_noise):
        revivals = [optimal_time(k, 1, 1.0) for k in (1, 2, 3)]
        grid = np.unique(np.concatenate([np.linspace(10, 60, 11), revivals]))
        curves = sweep(standard_not_loop(1.0, 1.0), grid, [0.0])
        for r in revivals:
            idx = int(np.argmin(np.abs(grid - r)))
            assert curves[0][idx] >= 1.0 - 1e-6

    def test_pointwise_ordering_in_coupling(self):
        grid = np.linspace(14.0, 22.0, 5)
        noise = high_temperature_noise(0.0, gamma0=0.5)
        curves = sweep(standard_not_loop(1.0, 1.0), grid, [0.005, 0.01], noise=noise)
        assert np.all(curves[1] <= curves[0] + 1e-12)

    def test_empty_lambda_list(self):
        out = sweep(standard_not_loop(1.0, 1.0), np.array([10.0, 12.0]), [])
        assert out == []

    def test_csv_format(self, no_noise):
        grid = np.array([18.0, 19.0])
        text = _sweep_csv(grid, sweep(standard_not_loop(1.0, 1.0), grid, [0.0])[0])
        lines = text.strip().split("\n")
        assert lines[0] == "omega_tau,mean_fidelity"
        assert len(lines) == 3
        for row in lines[1:]:
            float(row.split(",")[0]), float(row.split(",")[1])

    def test_csv_rows_match_numpy_scalar_formatting(self):
        # the rows format Python floats; the text must be what np.float64
        # scalars give on values with long or borderline 12-digit forms
        awkward = np.array([1e-05, 60.25, 0.1 + 0.2, 1 - 1e-13, 1 / 3])
        rows = [f"{ot:.12g},{mf:.12g}" for ot, mf in zip(awkward, awkward[::-1])]
        assert isinstance(awkward[0], np.float64)
        expected = "\n".join(["omega_tau,mean_fidelity", *rows]) + "\n"
        assert _sweep_csv(awkward, awkward[::-1]) == expected
        assert rows[2:4] == ["0.3,0.3", "1,60.25"]

    @pytest.mark.parametrize("values", [[1e-05, 2.5e16, 1.0, 60.0, 999999999999.5, 0.5],
                                        [18.25]], ids=["awkward", "one-row"])
    def test_csv_matches_per_value_formatting(self, values):
        # exponent forms, integral floats and 999999999999.5, a tie at the
        # 12th digit that rounds to even, 1e+12, in the one-pass rendering
        ot = np.array(values)
        rows = [format(a, ".12g") + "," + format(b, ".12g")
                for a, b in zip(ot.tolist(), ot[::-1].tolist())]
        assert _sweep_csv(ot, ot[::-1]) == "\n".join(["omega_tau,mean_fidelity", *rows]) + "\n"
        if len(values) > 1:
            assert rows[:2] == ["1e-05,0.5", "2.5e+16,1e+12"]
            assert rows[2:4] == ["1,60", "60,1"]


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
        seen, grids = [], []

        def recording(loop, noise, steps=None, omega_tau=None):
            seen.append(steps)
            grids.append(omega_tau)
            return loop_channel(loop, noise, steps, omega_tau)

        monkeypatch.setattr(analysis, "loop_channel", recording)
        find_optimal_point(standard_not_loop(1.0, 1.0), high_temperature_noise(1e-3))
        # every call is a grid; the bound counts the points integrated
        assert 1 <= sum(len(grid) for grid in grids) <= 12
        assert len(set(seen)) == 1
        # the opening bracket's three points are the first call, one grid;
        # each later point is a grid of one
        tau1 = optimal_time(1, 1, 1.0)
        centre, h = tau1, (PEAK_WINDOW[1] - PEAK_WINDOW[0]) * tau1 / 40
        assert grids[0] == pytest.approx([centre - h, centre, centre + h], rel=1e-12)
        assert all(len(grid) == 1 for grid in grids[1:])

    def test_search_past_omega_tau_60_holds_one_count(self, monkeypatch):
        # wedge:5's window centre Omega*tau 69.0 takes 166 default steps; the
        # points it visits would take 160-169 of their own, and one plan
        # serves every call at the centre's count
        seen, grids = [], []

        def recording(loop, noise, steps=None, omega_tau=None):
            seen.append(steps)
            grids.append(omega_tau)
            return loop_channel(loop, noise, steps, omega_tau)

        monkeypatch.setattr(analysis, "loop_channel", recording)
        _channel_plan.cache_clear()
        find_optimal_point(wedge_loop(5, 1.0, 1.0), high_temperature_noise(0.005))
        assert seen == [166] * 12
        assert _channel_plan.cache_info().misses == 1
        own = [default_step_count(ot) for grid in grids for ot in grid]
        assert (min(own), max(own)) == (160, 169)

    @pytest.mark.parametrize("n, lam, window", [
        (1, 1e-3, (0.9, 1.05)),
        (1, 0.05, (0.9, 1.05)),
        (2, 0.05, (0.9, 1.0)),
    ])
    def test_matches_a_dense_golden_section(self, n, lam, window):
        # Each window holds one maximum, the one the search starts on.
        loop, noise = wedge_loop(n, 1.0, 1.0), high_temperature_noise(lam)
        tau1 = optimal_time(1, n, 1.0)
        steps = default_step_count(tau1)
        x_ref, f_ref = golden_section_peak(
            lambda x: mean_fidelity(with_total_time(loop, x), noise, steps=steps),
            window[0] * tau1,
            window[1] * tau1,
            1e-8,
        )
        pt = find_optimal_point(loop, noise, steps=steps)
        assert abs(pt.tau_star - x_ref) <= PEAK_TOL <= 1e-5
        assert abs(pt.f_star - f_ref) <= 1e-12

    def test_monotone_window_raises(self, no_noise, monkeypatch):
        # Omega*tau 10-14, below the first revival at 18.25, holds no maximum
        monkeypatch.setattr(analysis, "PEAK_WINDOW", (10.0 / OMEGA_TAU_1, 14.0 / OMEGA_TAU_1))
        with pytest.raises(NoPeakInWindow):
            find_optimal_point(standard_not_loop(1.0, 1.0), no_noise)


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

        def recording(loop, noise, steps=None, omega_tau=None):
            seen.append(steps)
            return loop_channel(loop, noise, steps, omega_tau)

        monkeypatch.setattr(analysis, "loop_channel", recording)
        robustness_at(standard_not_loop(1.0, 1.0), high_temperature_noise(0.02), steps=400)
        assert seen and set(seen) == {400}
