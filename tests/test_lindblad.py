import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripod_holonomy import (
    DensityMatrix,
    NoiseModel,
    dissipator_apply,
    evolve_density,
    high_temperature_noise,
    jump_operators,
    loop_channel,
    loop_propagator,
    standard_not_loop,
    wedge_loop,
)
from tripod_holonomy.errors import StepCountTooSmall
from tripod_holonomy.lindblad import (
    COUPLING,
    FREQUENCY_MULTIPLES,
    noise_from_json,
    noise_to_json,
)
from tripod_holonomy.tripod import SphericalPoint, eigenframe

angles = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True, allow_nan=False)


def random_density(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = m @ m.conj().T
    return s / np.trace(s)


class TestNoiseModel:
    def test_high_temperature_default_is_flat(self):
        noise = high_temperature_noise(0.01, gamma0=0.7)
        assert all(noise.rate(k) == 0.7 for k in FREQUENCY_MULTIPLES)
        assert all(noise.shift(k) == 0.0 for k in FREQUENCY_MULTIPLES)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=0.1, gamma={1: -1.0})
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=0.1, gamma={7: 1.0})

    def test_json_round_trip(self):
        noise = NoiseModel(
            lambda_sq=0.02,
            gamma={0: 0.5, 1: 0.4, -1: 0.4, 2: 0.3, -2: 0.3},
            lamb_shift={1: 0.05, -1: -0.05},
            label="custom",
        )
        assert noise_from_json(noise_to_json(noise)) == noise


class TestJumpOperators:
    @given(theta=angles, phi=phases)
    @settings(max_examples=100, deadline=None)
    def test_completeness(self, theta, phi):
        ops = jump_operators(SphericalPoint(theta, phi, 1.0))
        assert np.linalg.norm(ops.total() - COUPLING) <= 1e-11

    @given(theta=angles, phi=phases)
    @settings(max_examples=100, deadline=None)
    def test_adjoint_pairing(self, theta, phi):
        ops = jump_operators(SphericalPoint(theta, phi, 1.0))
        for k in (1, 2):
            assert np.linalg.norm(ops.operator(k).conj().T - ops.operator(-k)) <= 1e-12

    def test_pole_operators_explicit(self):
        # at the pole the coupling only connects |0> (dark) with D+/- via |e>
        p = SphericalPoint(0.0, 0.0, 1.0)
        ops = jump_operators(p)
        f = eigenframe(p).matrix
        ket0, dplus, dminus = np.eye(4)[0], f[:, 2], f[:, 3]
        np.testing.assert_allclose(ops.operator(0), np.zeros((4, 4)), atol=1e-14)
        expected_plus = (
            np.outer(ket0, dplus.conj()) - np.outer(dminus, ket0.conj())
        ) / np.sqrt(2)
        np.testing.assert_allclose(ops.operator(1), expected_plus, atol=1e-14)
        np.testing.assert_allclose(ops.operator(2), np.zeros((4, 4)), atol=1e-14)


class TestDissipator:
    def test_zero_rates_give_zero(self, rng):
        ops = jump_operators(SphericalPoint(0.7, 0.3, 1.0))
        silent = NoiseModel(lambda_sq=1.0)
        out = dissipator_apply(ops, silent, random_density(rng))
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-15)

    def test_maximally_mixed_is_stationary_for_flat_rates(self):
        # flat high-T rates: sum_k (A_k A_k^dag - A_k^dag A_k) cancels exactly
        ops = jump_operators(SphericalPoint(1.1, 0.4, 1.0))
        noise = high_temperature_noise(0.3, gamma0=0.8)
        out = dissipator_apply(ops, noise, np.eye(4) / 4.0)
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-14)

    def test_traceless_and_hermitian(self, rng):
        noise = high_temperature_noise(0.3, gamma0=0.8)
        for _ in range(100):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            ops = jump_operators(SphericalPoint(theta, phi, 1.0))
            out = dissipator_apply(ops, noise, random_density(rng))
            assert abs(np.trace(out)) <= 1e-11
            assert np.linalg.norm(out - out.conj().T) <= 1e-11

    def test_lamb_shift_contributes_commutator(self, rng):
        ops = jump_operators(SphericalPoint(0.7, 0.3, 1.0))
        shifted = NoiseModel(lambda_sq=1.0, lamb_shift={1: 0.2, -1: 0.2})
        s = random_density(rng)
        out = dissipator_apply(ops, shifted, s)
        assert np.linalg.norm(out) > 0
        assert abs(np.trace(out)) <= 1e-12


class TestDensityMatrix:
    def test_pure_state_constructor(self):
        dm = DensityMatrix.pure(np.array([1.0, 1.0j, 0.0, 0.0]))
        assert np.trace(dm.matrix).real == pytest.approx(1.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)


class TestEvolveDensity:
    def test_unitary_limit_matches_exact_propagator(self, not_loop, rng):
        u = loop_propagator(not_loop).matrix
        for _ in range(3):
            # dark-subspace pure input
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.zeros(4, dtype=complex)
            psi[:2] = c / np.linalg.norm(c)
            sigma0 = DensityMatrix.pure(psi)
            out = evolve_density(not_loop, high_temperature_noise(0.0), sigma0)
            expected = u @ sigma0.matrix @ u.conj().T
            assert np.linalg.norm(out.matrix - expected) <= 1e-7

    def test_unitary_limit_wedge_two(self):
        loop = wedge_loop(2, 1.0, 23.7)
        u = loop_propagator(loop).matrix
        sigma0 = DensityMatrix.pure(np.array([1.0, 0.0, 0.0, 0.0]))
        out = evolve_density(loop, high_temperature_noise(0.0), sigma0)
        assert np.linalg.norm(out.matrix - u @ sigma0.matrix @ u.conj().T) <= 1e-7

    def test_trace_and_hermiticity_preserved_on_grid(self):
        sigma0 = DensityMatrix.pure(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)).matrix
        for omega_tau in (6.0, 18.25, 33.0):
            for lam in (0.0, 0.02, 0.05):
                loop = standard_not_loop(1.0, omega_tau)
                out = evolve_density(loop, high_temperature_noise(lam), sigma0).matrix
                assert abs(np.trace(out) - 1.0) <= 1e-8
                assert np.linalg.norm(out - out.conj().T) <= 1e-8
                assert np.linalg.eigvalsh(out).min() >= -1e-6

    def test_monotone_damping_in_coupling(self, not_loop):
        target = loop_propagator(not_loop).matrix  # revival: exact NOT
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        sigma0 = np.outer(psi, psi.conj())
        expected = target @ sigma0 @ target.conj().T
        fids = []
        for lam in (0.0, 0.01, 0.03, 0.05):
            out = evolve_density(not_loop, high_temperature_noise(lam), sigma0).matrix
            fids.append(np.trace(expected @ out).real)
        assert all(b < a for a, b in zip(fids[:-1], fids[1:]))

    def test_under_resolved_run_rejected(self):
        loop = standard_not_loop(1.0, 2000.0)
        sigma0 = DensityMatrix.pure(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(StepCountTooSmall):
            evolve_density(loop, high_temperature_noise(0.05), sigma0, steps=3)

    def test_channel_trace_defect_small_at_default_steps(self, not_loop):
        ch = loop_channel(not_loop, high_temperature_noise(0.03))
        assert ch.trace_defect() <= 1e-10

    def test_stacked_apply_matches_single_apply(self, not_loop, rng):
        ch = loop_channel(not_loop, high_temperature_noise(0.03))
        stack = np.array([random_density(rng) for _ in range(5)])
        out = ch.apply(stack)
        assert out.shape == stack.shape
        for sigma, got in zip(stack, out):
            np.testing.assert_allclose(got, ch.apply(sigma), rtol=0, atol=1e-14)
