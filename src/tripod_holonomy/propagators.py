"""Exact and adiabatic propagators for tripod control loops.

The exact propagator uses the factorized form: on each arc the transport
generator (built from the analytic eigenframe) is constant, so the arc
evolution is a product of two matrix exponentials. Arc factors are
assembled in the lab basis, each from its own arc-start frame, and compose
by plain matrix multiplication; a brute-force midpoint integrator provides
an independent cross-check. The generator scales as the inverse arc time,
so a whole grid of loop times takes one constant exponential and one
stacked eigendecomposition per arc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDuration
from .linalg import exp_i_hermitian, is_unitary
from .loops import LoopSpec, check_wedge_family, solid_angle
from .tripod import (
    EigenFrame,
    SphericalPoint,
    _frame_columns,
    eigenframe,
    eigenframe_rate,
    hamiltonian,
)


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


def _arc_generator(loop: LoopSpec, arc_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(F0, G) of one arc: the eigenframe F0 at the arc start, and the
    transport generator G = -i F0^dag dF0/dt in F0's coordinates.

    On meridian and equator arcs at constant angular speed, G is the same
    at every point of the arc, so the arc-start value serves the whole arc.
    """
    arc = loop.arcs[arc_index]
    p = SphericalPoint(*arc.angles(0.0))
    f0 = eigenframe(p).matrix
    return f0, -1j * (f0.conj().T @ eigenframe_rate(p, *arc.rates()))


def loop_times(loop: LoopSpec, omega_tau) -> np.ndarray:
    """Loop times omega_tau / Omega of a 1-d grid of positive Omega*tau."""
    omega_tau = np.asarray(omega_tau, dtype=float)
    if omega_tau.ndim != 1 or not np.all(np.isfinite(omega_tau) & (omega_tau > 0)):
        raise InvalidDuration("an Omega*tau grid must be a 1-d array of positive times")
    return omega_tau / loop.omega_scale


def arc_propagator(loop: LoopSpec, arc_index: int, omega_tau=None) -> np.ndarray:
    """Exact lab-basis propagator of one arc:
    exp(i dt D) exp(-i dt (H_start + D)), with D = F0 G F0^dag. G scales as
    1/dt, so dt D is the same at every loop time, and with a 1-d Omega*tau
    grid the (n, 4, 4) stack at loop times omega_tau / Omega takes one
    exponential of dt D and one stacked exponential."""
    arc = loop.arcs[arc_index]
    dt = arc.duration
    if omega_tau is not None:
        dt = dt * (loop_times(loop, omega_tau) / loop.total_time)[:, None, None]
    f0, g = _arc_generator(loop, arc_index)
    d = arc.duration * (f0 @ g @ f0.conj().T)
    h0 = hamiltonian(*arc.angles(0.0), loop.omega_scale)
    return exp_i_hermitian(d, 1.0) @ exp_i_hermitian(dt * h0 + d, -1.0)


def loop_propagator(loop: LoopSpec, omega_tau=None) -> GatePropagator:
    """Exact propagator of the whole loop (arc 1 applied first); with a 1-d
    Omega*tau grid, the (n, 4, 4) stack of them over that grid."""
    u = np.eye(4, dtype=complex)
    for i in range(len(loop.arcs)):
        u = arc_propagator(loop, i, omega_tau) @ u
    return GatePropagator(matrix=u)


def adiabatic_holonomy(loop: LoopSpec) -> np.ndarray:
    """Closed-form adiabatic holonomy on span{D0(0), D1(0)}: exp(i sigma_y
    angle) = [[cos, sin], [-sin, cos]] for the loop's solid angle."""
    angle = solid_angle(loop)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def holonomy_path_ordered(loop: LoopSpec, steps: int = 2000) -> np.ndarray:
    """Holonomy by discrete parallel transport along the loop.

    Accumulates the dark-block frame overlaps between consecutive path
    samples (projected back to the unitary group each step, the Wilson-line
    discretization of the path-ordered connection integral), then applies
    the start/end gauge mismatch. Serves as the numerical cross-check of
    the closed form.
    """
    check_wedge_family(loop)
    w = np.eye(2, dtype=complex)
    for arc in loop.arcs:
        m = max(2, int(round(steps * arc.duration / loop.total_time)))
        frames = _frame_columns(*arc.angles(np.linspace(0.0, arc.duration, m + 1)))
        for j in range(m):
            overlap = frames[j + 1].conj().T @ frames[j]
            w = _polar_unitary(overlap[:2, :2]) @ w
    f_start = start_frame(loop).matrix
    th_end, ph_end = loop.arcs[-1].angles(loop.arcs[-1].duration)
    f_end = _frame_columns(np.asarray(th_end), np.asarray(ph_end))
    closure = (f_start.conj().T @ f_end)[:2, :2]
    return closure @ w


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


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


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """Product stack[n-1] @ ... @ stack[0] by pairwise tree reduction."""
    while stack.shape[0] > 1:
        n = stack.shape[0]
        if n % 2:
            head, tail = stack[:-1], stack[-1]
        else:
            head, tail = stack, None
        paired = np.matmul(head[1::2], head[0::2])
        if tail is not None:
            paired = np.concatenate([paired, tail[None]], axis=0)
        stack = paired
    return stack[0]


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
        w, v = np.linalg.eigh(h)
        phase = np.exp(-1j * dt * w)
        step_us = np.einsum("nij,nj,nkj->nik", v, phase, v.conj())
        u = _ordered_product(step_us) @ u
    return GatePropagator(matrix=u)

