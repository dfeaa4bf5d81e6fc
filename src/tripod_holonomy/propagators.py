"""Exact and adiabatic propagators for tripod control loops.

The exact propagator works in the transport picture: in the coordinates of
the analytic eigenframe F(t) the Hamiltonian is Omega diag(FRAME_ENERGY)
and the frame's own motion adds the transport generator G = -i F^T dF/dt,
constant on each meridian and equator arc. So each arc evolves by one
closed-form exponential, exp(-i dt (Omega E + G)), and the loop's
lab-basis propagator is F(end) x_n ... x_1 F(0)^T. The engine runs in
float64 on the real 8x8 embeddings [[Re, -Im], [Im, Re]]. Every map shared
by all points of a grid is one GEMM of a single shape, over chunks of
CHUNK points, the last one padded by repeating a point; only the per-point
arc products are one (8, 8) @ (8, 4) kernel per point. So a point rounds
alike in any grid, and a lone point costs a full chunk. A midpoint
integrator gives an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import _ordered_product
from .loops import ArcKind, ArcSegment, LoopSpec, solid_angle
from .tripod import DIM, FRAME_ENERGY, EigenFrame, eigenframe, hamiltonian


@dataclass(frozen=True)
class GatePropagator:
    """Unitary acquired over a full loop, or the (n, 4, 4) stack of them
    over a grid of loop times: unitary by construction, not checked here (an
    overflowed loop time gives NaN, which `mean_fidelity` rejects)."""

    matrix: np.ndarray


def start_frame(loop: LoopSpec) -> EigenFrame:
    """Eigenframe at the loop's start point (t = 0)."""
    return eigenframe(*loop.start_point())


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
    """Finite loop times omega_tau / Omega of a non-empty 1-d grid of positive Omega*tau."""
    omega_tau = np.asarray(omega_tau, dtype=float)
    positive = np.isfinite(omega_tau) & (omega_tau > 0)
    if omega_tau.ndim != 1 or not omega_tau.size or not positive.all():
        raise ConfigError("an Omega*tau grid must be a non-empty 1-d array of positive times")
    if float(omega_tau.max()) / float(loop.omega_scale) == np.inf:  # as floats: no warning
        raise NumericalError(f"loop time {omega_tau.max():g} / {loop.omega_scale:g} overflows")
    return omega_tau / loop.omega_scale


def _arc_tables(kind: ArcKind) -> tuple[np.ndarray, np.ndarray]:
    """Real embeddings of I, E^2, E G1 + G1 E, G1^2, -iE and -iG1, G1 of a unit-span
    arc, as (6, k) rows: their left four columns (for a first arc), and all eight."""
    g, e = _arc_generator(ArcSegment(kind, 0.0, 0.0, 1.0, 1.0)), np.diag(FRAME_ENERGY)
    anti = (FRAME_ENERGY[:, None] + FRAME_ENERGY) * g  # E G1 + G1 E, as E is diagonal
    m = np.array([np.eye(DIM), e * e, anti, g @ g, -1j * e, -1j * g])
    t = np.block([[m.real, -m.imag], [m.imag, m.real]])
    return t[..., :DIM].reshape(6, -1), t.reshape(6, -1)


_ARC_TABLES = {kind: _arc_tables(kind) for kind in ArcKind}

# Grid points per GEMM: the row count of every product shared by a grid's points.
CHUNK = 128


def _padded(rows: np.ndarray) -> np.ndarray:
    """rows with the last one repeated up to a whole number of CHUNKs."""
    return np.concatenate([rows, np.repeat(rows[-1:], -len(rows) % CHUNK, axis=0)])


def _chunked_product(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """rows @ table for (m, k) rows, as one (CHUNK, k) @ (k, j) GEMM per chunk,
    the last one padded: a row gives the same bits in any stack."""
    out = np.empty((len(rows) + -len(rows) % CHUNK, table.shape[1]))
    for s in range(0, len(rows), CHUNK):
        chunk = rows[s : s + CHUNK]
        np.matmul(chunk if len(chunk) == CHUNK else _padded(chunk), table,
                  out=out[s : s + CHUNK])
    return out[: len(rows)]


def _arc_weights(loop: LoopSpec, ratio: np.ndarray) -> np.ndarray:
    """(arcs, n, 6) table weights of each arc at loop times `ratio` (n,) times the
    loop's own. H = a E + span G1 (a = dt Omega) has H^3 = w^2 H, w^2 = a^2 + span^2,
    so exp(-iH) = I - 2 (sin(w/2) / w)^2 H^2 - i (sin(w) / w) H."""
    a = np.multiply.outer([arc.duration for arc in loop.arcs], ratio) * loop.omega_scale
    span = np.array([arc.end_angle - arc.start_angle for arc in loop.arcs])[:, None]
    # past Omega*tau ~ 1e154 a^2 overflows; mean_fidelity rejects the NaN propagator
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.sqrt(a**2 + span**2)
        even, odd = -2.0 * (np.sin(w / 2.0) / w) ** 2, np.sin(w) / w
        return np.stack([np.ones_like(a), even * a**2, even * (a * span), even * span**2,
                         odd * a, odd * span], axis=-1)


def loop_propagator(loop: LoopSpec, omega_tau=None) -> GatePropagator:
    """Exact lab-basis propagator of the whole loop (arc 1 applied first); with
    a 1-d Omega*tau grid, the (n, 4, 4) stack of them. The grid is padded to
    whole CHUNKs, and per chunk each arc is its (CHUNK, 6) weights @ its kind's
    table, as (CHUNK, 8, 8) real embeddings, a first arc's (CHUNK, 8, 4).
    vec(F(end) X F(0)^dag) = vec(X) @ kron(F(end), conj F(0))^T."""
    ratio = np.ones(1) if omega_tau is None else loop_times(loop, omega_tau) / loop.total_time
    weights = _arc_weights(loop, _padded(ratio))
    first = _ARC_TABLES[loop.arcs[0].kind][0]
    later = [_ARC_TABLES[arc.kind][1] for arc in loop.arcs[1:]]
    f_end, f0 = eigenframe(*loop.end_point()).matrix, start_frame(loop).matrix
    frames = np.einsum("ik,jl->klij", f_end, f0.conj()).reshape(DIM**2, DIM**2)
    # as floats, row q of F is (Re, Im) of F[q], and of i F it is (-Im, Re)
    lab_map = np.concatenate([frames, 1j * frames]).view(float)
    lab = np.empty((weights.shape[1], 2 * DIM**2))
    for s in range(0, len(lab), CHUNK):
        chunk = weights[:, s : s + CHUNK]
        x = (chunk[0] @ first).reshape(CHUNK, 2 * DIM, DIM)
        for weight, table in zip(chunk[1:], later):
            x = (weight @ table).reshape(CHUNK, 2 * DIM, 2 * DIM) @ x
        np.matmul(x.reshape(CHUNK, -1), lab_map, out=lab[s : s + CHUNK])
    lab = lab[: len(ratio)].view(complex)
    return GatePropagator(matrix=lab.reshape(np.shape(omega_tau) + (DIM, DIM)))


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
    phase = loop.omega_scale * loop.total_time
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = adiabatic_holonomy(loop)
    block[2, 2] = np.exp(-1j * phase)
    block[3, 3] = np.exp(+1j * phase)
    return GatePropagator(matrix=f0 @ block @ f0.conj().T)


def dark_block(u: np.ndarray, loop: LoopSpec) -> np.ndarray:
    """2x2 block of a lab-basis operator, or of each in a (..., 4, 4)
    stack, on span{D0(0), D1(0)}: vec(U) @ kron(f0^dag, f0^T)[dark rows]^T,
    taken on the interleaved (re, im) floats of vec(U) as one real
    (CHUNK, 32) @ (32, 8) GEMM per chunk, so a member of a stack gives the
    bits it gives alone, and a lone operator costs a full chunk."""
    f0 = start_frame(loop).matrix
    rows = np.einsum("ki,lj->klij", f0[:, :2].conj(), f0[:, :2]).reshape(DIM**2, 4)
    # as floats, Re U[q] meets row q of the dark rows and Im U[q] meets i times it
    read = np.stack([rows, 1j * rows], axis=1).reshape(2 * DIM**2, 4).view(float)
    vec = np.ascontiguousarray(u, dtype=complex).reshape(-1, DIM**2).view(float)
    return _chunked_product(vec, read).view(complex).reshape(np.shape(u)[:-2] + (2, 2))


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

