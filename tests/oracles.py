"""Reference helpers that only tests compare against.

Each one is an independent path to a value the package computes another
way: the path-ordered holonomy checks the closed-form one, the lab-basis
Magnus propagator checks the exact engine, the fit residuals check the
fitted noise-response laws against their data, the plain power series
checks the channel's step exponential, and the lab-basis channel checks
the transport-picture one.
"""

import numpy as np

from tripod_holonomy.analysis import FIT_MODELS, FitResult
from tripod_holonomy.lindblad import COUPLING
from tripod_holonomy.loops import ArcSegment, LoopSpec, wedge_loop
from tripod_holonomy.propagators import _ARC_TABLES, _arc_weights, loop_times, start_frame
from tripod_holonomy.tripod import _frame_columns, hamiltonian


def standard_not_loop(omega: float, tau: float) -> LoopSpec:
    """The pi/2-wedge NOT loop: three arcs of equal duration tau/3."""
    return wedge_loop(1, omega, tau)


def arc_propagator(loop: LoopSpec, arc_index: int, omega_tau=None) -> np.ndarray:
    """One arc's exact propagator in frame coordinates, F(end)^T U F(start),
    as the complex matrix Re + i Im of the engine's real embedding
    [[Re, -Im], [Im, Re]]; with a 1-d Omega*tau grid, the (n, 4, 4) stack."""
    ratio = np.ones(1) if omega_tau is None else loop_times(loop, omega_tau) / loop.total_time
    table = _ARC_TABLES[loop.arcs[arc_index].kind][min(arc_index, 1)]
    x = (_arc_weights(loop, ratio)[arc_index][:, None] @ table).reshape(len(ratio), 8, -1)
    u = x[:, :4, :4] + 1j * x[:, 4:, :4]
    return u[0] if omega_tau is None else u


def reverse_loop(loop: LoopSpec) -> LoopSpec:
    """Orientation-reversed loop (arcs in reverse order and direction)."""
    arcs = tuple(
        ArcSegment(a.kind, a.fixed_angle, a.end_angle, a.start_angle, a.duration)
        for a in reversed(loop.arcs)
    )
    return LoopSpec(omega_scale=loop.omega_scale, arcs=arcs)


def holonomy_path_ordered(loop: LoopSpec, steps: int = 2000) -> np.ndarray:
    """Holonomy by discrete parallel transport along the loop.

    Accumulates the dark-block frame overlaps between consecutive path
    samples (projected back to the unitary group each step, the Wilson-line
    discretization of the path-ordered connection integral), then applies
    the start/end gauge mismatch. Serves as the numerical cross-check of
    the closed form.
    """
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


def magnus_propagator(loop: LoopSpec, steps: int) -> np.ndarray:
    """The loop's propagator in the lab basis by 4th-order Magnus steps on
    tripod.hamiltonian alone, with no frame: each step's exponent is -i K,
    K = h/2 (H1 + H2) - i (sqrt(3) h^2 / 12) [H2, H1] from the Hamiltonians
    at its two Gauss points, Hermitian, and exponentiated by eigh. steps
    are split across arcs by duration."""
    u = np.eye(4, dtype=complex)
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    for arc in loop.arcs:
        n = max(1, int(round(steps * arc.duration / loop.total_time)))
        h = arc.duration / n
        hams = hamiltonian(*arc.angles(((np.arange(n)[:, None] + nodes) * h).ravel()),
                           loop.omega_scale)
        h1, h2 = hams[0::2], hams[1::2]
        k = 0.5 * h * (h1 + h2) - 1j * np.sqrt(3.0) * h * h / 12.0 * (h2 @ h1 - h1 @ h2)
        w, v = np.linalg.eigh(k)
        for step in (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2):
            u = step @ u
    return u


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def fit_residuals(fit: FitResult, points) -> np.ndarray:
    """Data minus the fitted law, at the (lambda_sq, y) points of the fit."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    _, powers, signs, names = FIT_MODELS[fit.model]
    predicted = np.full_like(x, fit.intercept)
    for p, s, name in zip(powers, signs, names):
        predicted = predicted + s * fit.coefficient(name) * x**p
    return y - predicted


def power_series_expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a real (n, d, d) stack by the plain power
    series of degree 20 in extended precision, after scaling every matrix
    by one power of two to a 1-norm of at most 0.05, then squaring back.
    The first omitted term is below 0.05^21 / 21! = 1e-44 of the scaled
    norm, so the result is exact to the float64 rounding of its output."""
    x = np.asarray(a, dtype=np.longdouble)
    squarings = max(0, int(np.ceil(np.log2(np.abs(x).sum(axis=-2).max() / 0.05))))
    x = x / np.longdouble(2) ** squarings
    term = np.broadcast_to(np.eye(x.shape[-1], dtype=np.longdouble), x.shape)
    total = term.copy()
    for k in range(1, 21):
        term = term @ x / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total.astype(float)


def _vec_superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of sigma -> left sigma right on row-major vec(sigma),
    for each pair of broadcast (..., 4, 4) stacks."""
    out = left[..., :, None, :, None] * np.swapaxes(right, -1, -2)[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], 16, 16)


def lab_generators(hams: np.ndarray, omega: float, noise) -> np.ndarray:
    """Lindblad generators on row-major vec(sigma) in the lab basis for a
    stack of tripod Hamiltonians with eigenvalues {0, 0, +-omega}, with no
    frame: H^3 = omega^2 H gives the eigenprojectors P(+-omega) =
    (H^2 +- omega H) / (2 omega^2) and P(0) = I - H^2 / omega^2, and the
    jump operators A_k = sum_E P(E) COUPLING P(E + k omega). The generator is
    -i[H, .] + lambda^2 sum_k gamma_k (A_k . A_k^dag - {A_k^dag A_k, .} / 2)
    - i S_k [A_k^dag A_k, .]."""
    eye = np.eye(4)
    h2 = hams @ hams
    proj = {1: (h2 + omega * hams) / (2 * omega**2), -1: (h2 - omega * hams) / (2 * omega**2),
            0: eye - h2 / omega**2}
    gen = -1j * (_vec_superop(hams, eye) - _vec_superop(eye, hams))
    for k in (-2, -1, 0, 1, 2):
        a = sum(proj[e] @ COUPLING @ proj[e + k] for e in proj if e + k in proj)
        ad_a = np.conj(np.swapaxes(a, -1, -2)) @ a
        gamma, shift = noise.lambda_sq * noise.rate(k), noise.lambda_sq * noise.shift(k)
        gen = gen + gamma * (_vec_superop(a, np.conj(np.swapaxes(a, -1, -2)))
                             - 0.5 * (_vec_superop(ad_a, eye) + _vec_superop(eye, ad_a)))
        gen = gen - 1j * shift * (_vec_superop(ad_a, eye) - _vec_superop(eye, ad_a))
    return gen


def lab_channel_phi(loop: LoopSpec, noise, steps: int) -> np.ndarray:
    """The loop's channel on row-major vec(sigma) in the lab basis, by
    4th-order Magnus steps on lab_generators: each step's exponent
    h/2 (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1] from its two Gauss points,
    exponentiated by eigendecomposition. steps are split across arcs by
    duration."""
    phi = np.eye(16, dtype=complex)
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    for arc in loop.arcs:
        n = max(1, int(round(steps * arc.duration / loop.total_time)))
        h = arc.duration / n
        times = ((np.arange(n)[:, None] + nodes) * h).ravel()
        gen = lab_generators(hamiltonian(*arc.angles(times), loop.omega_scale),
                             loop.omega_scale, noise)
        a1, a2 = gen[0::2], gen[1::2]
        exponent = 0.5 * h * (a1 + a2) + np.sqrt(3.0) * h * h / 12.0 * (a2 @ a1 - a1 @ a2)
        w, v = np.linalg.eig(exponent)
        for step in (v * np.exp(w)[:, None, :]) @ np.linalg.inv(v):
            phi = step @ phi
    return phi
