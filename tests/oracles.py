"""Reference helpers that only tests compare against.

Each one is an independent path to a value the package computes another
way: the path-ordered holonomy checks the closed-form one, and the fit
residuals check the fitted noise-response laws against their data.
"""

import numpy as np

from tripod_holonomy.analysis import FIT_MODELS, FitResult
from tripod_holonomy.loops import ArcSegment, LoopSpec, wedge_loop
from tripod_holonomy.propagators import start_frame
from tripod_holonomy.tripod import _frame_columns


def standard_not_loop(omega: float, tau: float) -> LoopSpec:
    """The pi/2-wedge NOT loop: three arcs of equal duration tau/3."""
    return wedge_loop(1, omega, tau)


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
