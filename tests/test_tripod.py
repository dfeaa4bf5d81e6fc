import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripod_holonomy import eigenframe, exp_i_hermitian, hamiltonian
from tripod_holonomy.tripod import FRAME_ENERGY

angles = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True, allow_nan=False)

KET = np.eye(4)

# Couplings near 1e-160 at which LAPACK's eigenvalue-only solver (eigvalsh)
# has returned a wrong spectrum, e.g. +-5.196 instead of +-7.3 at the first.
TINY_COUPLING_POINTS = ((0.5, 3.3e-162, 7.3), (1.0, 1.67e-159, 2.0))


def at_tiny_couplings(**extra):
    """Pin every TINY_COUPLING_POINTS entry as a Hypothesis example."""
    def pin(test):
        for theta, phi, omega in TINY_COUPLING_POINTS:
            test = example(theta=theta, phi=phi, omega=omega, **extra)(test)
        return test
    return pin


def rabi(theta, phi, omega):
    """(omega_0, omega_1, omega_a): the couplings of |0>, |1>, |a> to |e>."""
    return hamiltonian(theta, phi, omega)[3, :3].real


def test_point_validation():
    with pytest.raises(ValueError):
        eigenframe(np.nan, 0.0)


class TestRabiFromAngles:
    def test_pole(self):
        np.testing.assert_allclose(rabi(0.0, 0.0, 1.0), (0.0, 0.0, 1.0), atol=1e-15)

    def test_equator_phi_zero(self):
        np.testing.assert_allclose(rabi(np.pi / 2, 0.0, 1.0), (0.0, 1.0, 0.0), atol=1e-15)

    def test_equator_phi_quarter(self):
        np.testing.assert_allclose(rabi(np.pi / 2, np.pi / 2, 2.0), (2.0, 0.0, 0.0), atol=1e-15)

    @given(theta=angles, phi=phases, omega=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_norm_identity(self, theta, phi, omega):
        w0, w1, wa = rabi(theta, phi, omega)
        assert abs(w0**2 + w1**2 + wa**2 - omega**2) <= 1e-12 * omega**2


class TestHamiltonian:
    def test_pole_couples_ancilla_only(self):
        h = hamiltonian(0.0, 0.0, 1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 2] = expected[2, 3] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_equator_couples_one_only(self):
        h = hamiltonian(np.pi / 2, 0.0, 1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 1] = expected[1, 3] = 1.0
        np.testing.assert_allclose(h, expected, atol=1e-15)

    @given(theta=angles, phi=phases, omega=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    @at_tiny_couplings()
    def test_spectrum(self, theta, phi, omega):
        # spectrum {-omega, 0, 0, omega} through exact identities, not a solver
        h = hamiltonian(theta, phi, omega)
        assert abs(np.trace(h)) <= 1e-11 * omega
        assert abs(np.trace(h @ h) - 2.0 * omega**2) <= 1e-11 * omega**2
        assert np.linalg.norm(h @ h @ h - omega**2 * h) <= 1e-11 * omega**3

    @given(theta=angles, phi=phases, omega=st.floats(0.1, 10.0), s=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    @at_tiny_couplings(s=1.3)
    @at_tiny_couplings(s=-2.1)
    def test_exponential_closed_form(self, theta, phi, omega, s):
        # H^3 = omega^2 H gives exp(isH) = I + i sin(s w)/w H + (cos(s w) - 1)/w^2 H^2
        h = hamiltonian(theta, phi, omega)
        closed = (
            np.eye(4)
            + 1j * np.sin(s * omega) / omega * h
            + (np.cos(s * omega) - 1.0) / omega**2 * (h @ h)
        )
        assert np.abs(exp_i_hermitian(h, s) - closed).max() <= 1e-12

    def test_array_angles_match_scalar_calls(self):
        thetas = np.array([[0.0, 0.4], [1.2, np.pi / 2]])
        phis = np.array([[0.3, 2.0], [5.1, 0.0]])
        stack = hamiltonian(thetas, phis, 1.7)
        assert stack.shape == (2, 2, 4, 4)
        for idx in np.ndindex(thetas.shape):
            np.testing.assert_array_equal(stack[idx], hamiltonian(thetas[idx], phis[idx], 1.7))


class TestEigenframe:
    def test_pole_frame(self):
        f = eigenframe(0.0, 0.0).matrix
        np.testing.assert_allclose(f[:, 0], KET[0], atol=1e-15)
        np.testing.assert_allclose(f[:, 1], KET[1], atol=1e-15)
        np.testing.assert_allclose(f[:, 2], (KET[3] + KET[2]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(f[:, 3], (-KET[3] + KET[2]) / np.sqrt(2), atol=1e-15)

    def test_equator_d1_is_minus_ancilla(self):
        f = eigenframe(np.pi / 2, 0.0).matrix
        np.testing.assert_allclose(f[:, 1], -KET[2], atol=1e-15)

    @given(theta=angles, phi=phases, omega=st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_frame_diagonalizes_hamiltonian(self, theta, phi, omega):
        f = eigenframe(theta, phi).matrix
        assert np.linalg.norm(f.conj().T @ f - np.eye(4)) <= 1e-12
        h = hamiltonian(theta, phi, omega)
        resid = h @ f - f @ np.diag(omega * FRAME_ENERGY)
        assert np.linalg.norm(resid) <= 1e-11 * omega

    @given(theta=angles, phi=phases)
    @settings(max_examples=40, deadline=None)
    def test_dark_subspace_annihilated(self, theta, phi):
        h = hamiltonian(theta, phi)
        dark = eigenframe(theta, phi).dark
        # any unit vector in span(D0, D1)
        v = (0.6 * dark[:, 0] + 0.8j * dark[:, 1])
        assert np.linalg.norm(h @ v) <= 1e-11

    def test_gauge_continuity_along_path(self):
        # refining the sampling shrinks the largest frame step ~ linearly
        def max_step(n):
            t = np.linspace(0.0, 1.0, n)
            thetas = 0.5 * np.pi * t
            phis = 0.4 * np.pi * t**2
            frames = [eigenframe(th, ph).matrix for th, ph in zip(thetas, phis)]
            return max(
                np.linalg.norm(b - a) for a, b in zip(frames[:-1], frames[1:])
            )

        coarse, fine = max_step(200), max_step(800)
        assert fine < coarse / 3.0
