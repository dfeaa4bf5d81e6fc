"""Exact and adiabatic propagators for tripod control loops.

The exact propagator works in the transport picture: in the coordinates of
the analytic eigenframe F(t) the Hamiltonian is Omega diag(FRAME_ENERGY)
and the frame's own motion adds the transport generator G = -i F^T dF/dt,
which is constant on each meridian and equator arc. So each arc evolves
by one exponential, exp(-i dt (Omega E + G)), and consecutive arcs share
the frame at their joint: the loop's lab-basis propagator is
F(end) x_n ... x_1 F(0)^T. Each exponential is a closed form in H and H^2,
and G scales as the inverse arc time, so a whole grid of loop times takes
one stacked closed form per arc. A brute-force midpoint integrator, with
closed-form steps too, provides an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDuration
from .linalg import _ordered_product, is_unitary
from .loops import ArcKind, ArcSegment, LoopSpec, solid_angle
from .tripod import DIM, FRAME_ENERGY, EigenFrame, eigenframe, hamiltonian


@dataclass(frozen=True)
class GatePropagator:
    """Unitary acquired over a full loop, or the (n, 4, 4) stack of them
    over a grid of loop times; every member is checked."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not is_unitary(self.matrix):
            raise ValueError("propagator is not unitary to tolerance")


def start_frame(loop: LoopSpec) -> EigenFrame:
    """Eigenframe at the loop's start point (t = 0)."""
    return eigenframe(loop.start_point())


def _arc_generator(arc: ArcSegment) -> np.ndarray:
    """Transport generator G = -i F^T dF/dt of one arc, in frame coordinates.

    The arc moves one dark state, D1 along a meridian and D0 along the
    equator, and only that state couples, to D+ and D- alike, with
    strength rate / sqrt(2): the same at every point of the arc.
    """
    moving = 1 if arc.kind is ArcKind.MERIDIAN else 0
    coupling = -1j * arc.rate / np.sqrt(2.0)
    g = np.zeros((DIM, DIM), dtype=complex)
    g[moving, 2:] = coupling
    g[2:, moving] = -coupling
    return g


def loop_times(loop: LoopSpec, omega_tau) -> np.ndarray:
    """Loop times omega_tau / Omega of a 1-d grid of positive Omega*tau."""
    omega_tau = np.asarray(omega_tau, dtype=float)
    if omega_tau.ndim != 1 or not np.all(np.isfinite(omega_tau) & (omega_tau > 0)):
        raise InvalidDuration("an Omega*tau grid must be a 1-d array of positive times")
    return omega_tau / loop.omega_scale


def arc_propagator(loop: LoopSpec, arc_index: int, omega_tau=None) -> np.ndarray:
    """Exact propagator of one arc in frame coordinates, F(end)^T U F(start):
    exp(-iH), H = dt Omega E + duration G; with a 1-d Omega*tau grid, the
    (n, 4, 4) stack at loop times omega_tau / Omega. H has eigenvalues
    {0, 0, +-w}, w^2 = (dt Omega)^2 + span^2 > 0, so H^3 = w^2 H and
    exp(-iH) = I - 2 (sin(w/2) / w)^2 H^2 - i (sin(w) / w) H."""
    arc = loop.arcs[arc_index]
    dt = arc.duration
    if omega_tau is not None:
        dt = dt * (loop_times(loop, omega_tau) / loop.total_time)[:, None, None]
    a = dt * loop.omega_scale
    h = a * np.diag(FRAME_ENERGY) + arc.duration * _arc_generator(arc)
    w = np.sqrt(a**2 + (arc.end_angle - arc.start_angle) ** 2)
    return np.eye(DIM) - 2.0 * (np.sin(w / 2.0) / w) ** 2 * (h @ h) - 1j * (np.sin(w) / w) * h


def loop_propagator(loop: LoopSpec, omega_tau=None) -> GatePropagator:
    """Exact lab-basis propagator of the whole loop (arc 1 applied first);
    with a 1-d Omega*tau grid, the (n, 4, 4) stack of them over that grid.
    Each arc hands the next its end frame."""
    x = arc_propagator(loop, 0, omega_tau)
    for i in range(1, len(loop.arcs)):
        x = arc_propagator(loop, i, omega_tau) @ x
    f_end = eigenframe(loop.end_point()).matrix
    return GatePropagator(matrix=f_end @ x @ start_frame(loop).matrix.conj().T)


def adiabatic_holonomy(loop: LoopSpec) -> np.ndarray:
    """Closed-form adiabatic holonomy on span{D0(0), D1(0)}: exp(i sigma_y
    angle) = [[cos, sin], [-sin, cos]] for the loop's solid angle."""
    angle = solid_angle(loop)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def adiabatic_gate(loop: LoopSpec) -> GatePropagator:
    """Full 4x4 adiabatic-limit gate: holonomy on the dark block plus the
    bright dynamical phases exp(-+ i omega tau), in the lab basis."""
    f0 = start_frame(loop).matrix
    tau = loop.total_time
    omega = loop.omega_scale
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = adiabatic_holonomy(loop)
    block[2, 2] = np.exp(-1j * omega * tau)
    block[3, 3] = np.exp(+1j * omega * tau)
    return GatePropagator(matrix=f0 @ block @ f0.conj().T)


def dark_block(u: np.ndarray, loop: LoopSpec) -> np.ndarray:
    """2x2 block of a lab-basis operator, or of each in a (..., 4, 4)
    stack, on span{D0(0), D1(0)}."""
    f0 = start_frame(loop).matrix
    return (f0.conj().T @ u @ f0)[..., :2, :2]


def schrodinger_oracle(loop: LoopSpec, steps: int = 100_000) -> GatePropagator:
    """Brute-force propagator: time-ordered product of midpoint-sampled
    step exponentials, second-order accurate in the step size."""
    total = loop.total_time
    u = np.eye(4, dtype=complex)
    for arc in loop.arcs:
        m = max(1, int(round(steps * arc.duration / total)))
        dt = arc.duration / m
        thetas, phis = arc.angles((np.arange(m) + 0.5) * dt)
        h = hamiltonian(thetas, phis, loop.omega_scale)
        # K = H / Omega has K^3 = K, so exp(-i x K) = I - 2 sin^2(x/2) K^2 - i sin(x) K
        x, k = loop.omega_scale * dt, h / loop.omega_scale
        step_us = np.eye(4) - 2.0 * np.sin(x / 2.0) ** 2 * (k @ k) - 1j * np.sin(x) * k
        u = _ordered_product(step_us, np.empty_like(step_us)) @ u
    return GatePropagator(matrix=u)

