import numpy as np
import pytest

from tripod_holonomy import (
    NoiseModel,
    adiabatic_gate,
    hamiltonian,
    high_temperature_noise,
    optimal_time,
    with_total_time,
)
from tripod_holonomy.propagators import _arc_generator, start_frame
from tripod_holonomy.tripod import _frame_columns

from oracles import standard_not_loop

# Dark-qubit amplitudes of the Bloch vectors +z, -z, +x, -x, +y, -y: a
# spherical 2-design, so their mean fidelity is the exact Bloch average.
_R = 1.0 / np.sqrt(2.0)
OCTAHEDRON = np.array(
    [[1, 0], [0, 1], [_R, _R], [_R, -_R], [_R, 1j * _R], [_R, -1j * _R]], dtype=complex
)

# A loop file whose arcs run at three different angular speeds.
UNEVEN_LOOP_DOC = {"omega_scale": 1.3, "arcs": [
    {"kind": "meridian", "fixed_angle": 0.0, "start_angle": 0.0,
     "end_angle": np.pi / 2, "duration": 0.2},
    {"kind": "equator", "fixed_angle": np.pi / 2, "start_angle": 0.0,
     "end_angle": np.pi / 6, "duration": 0.5},
    {"kind": "meridian", "fixed_angle": np.pi / 6, "start_angle": np.pi / 2,
     "end_angle": 0.0, "duration": 0.3},
]}

# Unequal rates on all five frequencies and non-zero Lamb shifts.
UNEQUAL_NOISE = NoiseModel(
    lambda_sq=1.0,
    gamma={0: 0.31, 1: 0.47, -1: 0.22, 2: 0.13, -2: 0.58},
    lamb_shift={0: 0.05, 1: -0.07, -1: 0.11, 2: 0.02, -2: -0.03},
)

# Two wedges, at phi = 0 and phi = pi, joined near the pole: the third arc
# stops 1e-10 short of it, close enough for the fourth arc's start to meet
# its end, but the frames there belong to phi = pi/2 and phi = pi.
_HALF_PI = np.pi / 2
GAUGE_JUMP_LOOP_DOC = {"omega_scale": 1.0, "arcs": [
    {"kind": kind, "fixed_angle": fixed, "start_angle": start, "end_angle": end, "duration": 1.0}
    for kind, fixed, start, end in (
        ("meridian", 0.0, 0.0, _HALF_PI),
        ("equator", _HALF_PI, 0.0, _HALF_PI),
        ("meridian", _HALF_PI, _HALF_PI, 1e-10),
        ("meridian", np.pi, 0.0, _HALF_PI),
        ("equator", _HALF_PI, np.pi, np.pi + _HALF_PI),
        ("meridian", np.pi + _HALF_PI, _HALF_PI, 0.0),
    )
]}

# First three revival times of the standard loop (Omega = 1), closed form.
OMEGA_TAU_STAR = tuple(optimal_time(k, 1, 1.0) for k in (1, 2, 3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240903)


@pytest.fixture
def not_loop():
    """Standard NOT loop at the first revival time (Omega = 1)."""
    return standard_not_loop(1.0, OMEGA_TAU_STAR[0])


@pytest.fixture
def no_noise():
    return high_temperature_noise(0.0)


def random_hermitian(rng, dim=4, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def _expm_i(a, s):
    w, v = np.linalg.eigh(a)
    return (v * np.exp(1j * s * w)) @ v.conj().T


def per_point_propagator(loop, omega_tau):
    """The loop's propagator at one Omega*tau, built point by point: the
    loop rescaled to that time, then exp(i dt D) exp(-i dt (H0 + D)) per
    arc with D = F0 G F0^T, F0 the frame at the arc's start."""
    run = with_total_time(loop, omega_tau / loop.omega_scale)
    u = np.eye(4, dtype=complex)
    for arc in run.arcs:
        f0 = _frame_columns(*arc.angles(0.0))
        d = f0 @ _arc_generator(arc) @ f0.T
        h0 = hamiltonian(*arc.angles(0.0), run.omega_scale)
        u = _expm_i(d, arc.duration) @ _expm_i(h0 + d, -arc.duration) @ u
    return u


def six_state_fidelities(loop, u):
    """|<psi| T^dag U |psi>|^2 of the six octahedral dark-qubit inputs psi,
    with T the loop's adiabatic gate and U a lab-basis propagator."""
    psi = OCTAHEDRON @ start_frame(loop).dark.T
    t = adiabatic_gate(loop).matrix
    return np.abs(np.einsum("ni,ij,nj->n", (t @ psi.T).T.conj(), u, psi)) ** 2


def per_point_fidelity(loop, omega_tau):
    """Noiseless six-state average at one Omega*tau, from
    per_point_propagator and the adiabatic gate of the rescaled loop."""
    run = with_total_time(loop, omega_tau / loop.omega_scale)
    return float(np.mean(six_state_fidelities(run, per_point_propagator(loop, omega_tau))))
