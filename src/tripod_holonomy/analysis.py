"""Mean gate fidelity, parameter sweeps, optimal-working-point search,
noise-response fits, and the robustness figure of merit.

The fidelity target is always the adiabatic-limit gate of the same loop;
inputs are pure states on the dark-subspace Bloch sphere. The fidelity is
quadratic in the input state, so its Bloch-sphere average is a fixed
linear function of the loop's map on the dark block, taken in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .lindblad import (
    NoiseModel,
    _step_counts,
    default_step_count,
    high_temperature_noise,
    loop_channel,
)
from .loops import LoopSpec, optimal_time, wedge_order, with_total_time
from .parallel import ordered_map
from .propagators import adiabatic_holonomy, dark_block, loop_propagator, start_frame
from .propagators import adiabatic_gate  # noqa: F401  (perfbench/selftest.py checks this binding)
from .tripod import eigenframe

PEAK_WINDOW = (0.7, 1.3)
PEAK_TOL = 1e-5
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def mean_fidelity(
    loop: LoopSpec, noise: NoiseModel, steps: int | None = None, omega_tau=None
) -> float | np.ndarray:
    """Exact Bloch-sphere average of Tr{sigma_ad sigma(tau)}; one value per
    point of an Omega*tau grid (under dissipative noise, from one
    `loop_channel` call on the whole grid, at its largest Omega*tau's count).
    With y[i, j, k, l] = <D_i| T^dag Phi(|D_k><D_l|) T |D_j>, the loop's map on
    the dark block in start-frame coordinates against the target's dark block
    T, the closed-form holonomy, it is (sum_ij y[i,j,i,j] + sum_ij y[j,j,i,i])
    / 6; for a unitary with dark block d, Nielsen's (|Tr M|^2 + Tr M M^dag) / 6
    (PLA 303, 249, 2002), M = T^dag d: Tr M = sum conj(T) d, Tr M M^dag = Tr d d^dag."""
    target = adiabatic_holonomy(loop)
    if noise.dissipative:
        # the channel's outputs are in end-frame coordinates; the closure
        # f0^dag f_end moves them to the start frame's
        closure = start_frame(loop).matrix.conj().T @ eigenframe(*loop.end_point()).matrix
        v = target.conj().T @ closure[:2]
        phi = loop_channel(loop, noise, steps, omega_tau).phi
        units = np.ascontiguousarray(phi.reshape(-1, 4, 4, 4, 4)[..., :2, :2])
        y = np.einsum("ia,nabkl,jb->nijkl", v, units, v.conj())
        value = (np.einsum("...ijij->...", y) + np.einsum("...jjii->...", y)).real / 6.0
    else:
        d = dark_block(loop_propagator(loop, omega_tau).matrix, loop)
        trace = (target.conj() * d).sum(axis=(-2, -1))
        value = (trace.real**2 + trace.imag**2 + (d.real**2 + d.imag**2).sum(axis=(-2, -1))) / 6.0
    broken = np.extract(~np.isfinite(value), value)
    if broken.size:
        # the Magnus gate has passed, or the exact engine overflowed (past
        # Omega*tau ~ 1e154): more steps cannot mend this
        raise NumericalError(f"mean fidelity {broken[0]} is not finite: a numerical fault")
    outside = np.extract(~((value >= -1e-9) & (value <= 1.0 + 1e-9)), value)
    if outside.size:
        raise NumericalError(f"mean fidelity {outside[0]} outside [0, 1]; increase steps")
    return value.item() if omega_tau is None else value


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep(
    loop: LoopSpec,
    omega_tau_grid: np.ndarray,
    lambda_sq_list: list[float],
    steps: int | None = None,
    noise: NoiseModel | None = None,
) -> list[np.ndarray]:
    """One mean-fidelity array per coupling strength, in list order, over a
    shared Omega*tau grid.

    `noise` supplies the rate tables; its lambda_sq field is overridden by
    each entry of lambda_sq_list. Each array is one `mean_fidelity` call on
    the whole grid, in this process: a silent curve (lambda^2 = 0 or an
    all-zero table) from the stacked exact propagator, a dissipative one
    from one `loop_channel` call on the whole grid. Either engine raises
    ConfigError for a grid that is not a non-empty 1-d array of
    positive times.
    """
    if noise is None:
        noise = high_temperature_noise(0.0)
    return ordered_map(
        lambda lam: mean_fidelity(loop, noise.with_lambda_sq(lam), steps, omega_tau_grid),
        lambda_sq_list,
    )


# ---------------------------------------------------------------------------
# Optimal working point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimalPoint:
    """First-revival peak coordinates at fixed noise."""

    tau_star: float
    f_star: float
    lambda_sq: float
    bracket: tuple[float, float]
    tolerance: float


def _brent_max(fn, a: float, b: float, points) -> tuple[float, float]:
    """Brent's method for the maximum of fn inside the bracket (a, b):
    parabolic steps with a golden-section fallback (Brent 1973, ch. 5).
    `points` are three evaluated (x, fn(x)) pairs in [a, b]; returns the
    best point once it is known to within PEAK_TOL."""
    (x, fx), (w, fw), (v, fv) = sorted(points, key=lambda pt: -pt[1])
    d = e = b - a
    while max(x - a, b - x) > PEAK_TOL:
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - w) * r - (x - v) * q, 2.0 * (q - r)
        p, q = (-p, -q) if q < 0 else (p, q)
        e_prev, e = e, d
        if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < PEAK_TOL:
                d = math.copysign(PEAK_TOL / 2, a + b - 2 * x)
        else:
            e = (a if 2 * x >= a + b else b) - x
            d = (1.0 - _GOLDEN) * e
        u = x + math.copysign(max(abs(d), PEAK_TOL / 2), d)
        fu = fn(u)
        if fu >= fx:
            a, b = (x, b) if u >= x else (a, x)
            (v, fv), (w, fw), (x, fx) = (w, fw), (x, fx), (u, fu)
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu >= fw:
                (v, fv), (w, fw) = (w, fw), (u, fu)
            elif fu >= fv:
                v, fv = u, fu
    return x, fx


def find_optimal_point(loop: LoopSpec, noise: NoiseModel, steps: int | None = None) -> OptimalPoint:
    """Locate the first fidelity peak, inside the window (lo, hi) =
    PEAK_WINDOW times Omega*tau*_1 in Omega*tau. The search evaluates the
    window centre and its neighbours at +-(hi - lo)/40 as one grid, each
    later point as a grid of one, and climbs uphill, each step the golden
    ratio longer than the last, until the middle of three points is the
    highest: it takes the maximum the centre sits on (wedge:n windows with
    n >= 2 hold several). Brent's method refines that bracket to PEAK_TOL.
    A climb that would leave the window raises NumericalError, and so does
    an empty window, where Omega*tau*_1 overflows to inf or underflows to
    0 at an extreme Omega."""
    omega = loop.omega_scale
    tau1 = omega * optimal_time(1, wedge_order(loop), omega)
    lo, hi = PEAK_WINDOW[0] * tau1, PEAK_WINDOW[1] * tau1
    if not (hi > lo > 0):
        raise NumericalError(f"empty search window ({lo}, {hi}) at Omega {omega:g}")
    centre, h = 0.5 * (lo + hi), (hi - lo) / 40
    if steps is None:
        _step_counts(loop, None, centre)  # the ceiling, named at the centre
        steps = default_step_count(centre)

    def f(omega_tau: float) -> float:
        return mean_fidelity(loop, noise, steps, [omega_tau]).item()

    opening = [centre - h, centre, centre + h]
    pts = list(zip(opening, mean_fidelity(loop, noise, steps, opening).tolist()))
    while pts[1][1] < max(pts[0][1], pts[2][1]):
        h /= _GOLDEN
        up = 1 if pts[2][1] > pts[0][1] else -1
        x = pts[1 + up][0] + up * h
        if not lo <= x <= hi:
            raise NumericalError(f"no maximum uphill of the centre of window ({lo}, {hi})")
        pts = pts[1:] + [(x, f(x))] if up > 0 else [(x, f(x))] + pts[:2]
    bracket = (pts[0][0], pts[2][0])
    x_star, f_star = _brent_max(f, *bracket, pts)
    return OptimalPoint(
        tau_star=x_star / omega,
        f_star=f_star,
        lambda_sq=noise.lambda_sq,
        bracket=bracket,
        tolerance=PEAK_TOL,
    )


# ---------------------------------------------------------------------------
# Noise-response fits
# ---------------------------------------------------------------------------

# model id -> (default fixed intercept, polynomial powers of lambda^2,
#              reported sign of each power, coefficient names)
FIT_MODELS = {
    "f_linear": (1.0, (1,), (-1.0,), ("F2",)),
    "f_quartic": (1.0, (1, 2), (-1.0, 1.0), ("F2", "F4")),
    "tau_linear": (None, (1,), (-1.0,), ("tau2",)),
    "tau_cubic": (None, (1, 2, 3), (-1.0, 1.0, -1.0), ("tau2", "tau4", "tau6")),
}


@dataclass(frozen=True)
class FitCoefficient:
    name: str
    value: float
    stderr: float


@dataclass(frozen=True)
class FitResult:
    """Constrained polynomial fit in powers of lambda^2."""

    model: str
    intercept: float
    coefficients: tuple[FitCoefficient, ...]
    residual_norm: float

    def coefficient(self, name: str) -> float:
        for c in self.coefficients:
            if c.name == name:
                return c.value
        raise KeyError(name)


def fit_noise_response(
    points: list[tuple[float, float]],
    model: str,
    intercept: float | None = None,
) -> FitResult:
    """Least squares in powers of lambda^2 with the intercept held fixed.

    For tau models the intercept is the analytic noiseless value and must
    be supplied (in the same units as the y data).
    """
    if model not in FIT_MODELS:
        raise ConfigError(f"unknown fit model {model!r}")
    default_intercept, powers, signs, names = FIT_MODELS[model]
    intercept = default_intercept if intercept is None else intercept
    if intercept is None:
        raise ValueError(f"model {model!r} needs an explicit intercept")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (lambda_sq, y) pairs")
    x, y = pts[:, 0], pts[:, 1]
    n_free = len(powers)
    if len(x) < n_free + 1:
        raise ConfigError(f"{model} needs at least {n_free + 1} points, got {len(x)}")

    design = np.stack([s * x**p for p, s in zip(powers, signs)], axis=1)
    rhs = y - intercept
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < n_free:
        raise ConfigError(f"{model}: lambda^2 values fix {rank} of {n_free} coefficients")
    resid = rhs - design @ coef
    dof = len(x) - n_free
    sigma_sq = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma_sq * np.linalg.inv(design.T @ design)
    stderr = np.sqrt(np.diag(cov))

    return FitResult(
        model=model,
        intercept=float(intercept),
        coefficients=tuple(
            FitCoefficient(name=name, value=float(c), stderr=float(e))
            for name, c, e in zip(names, coef, stderr)
        ),
        residual_norm=float(np.linalg.norm(resid)),
    )


def f_of_tau_relation(f_fit: FitResult, tau_fit: FitResult) -> float:
    """Slope of the linear F*(tau*) relation: F2 / (Omega tau2)."""
    if f_fit.model != "f_linear" or tau_fit.model != "tau_linear":
        raise ConfigError("f_of_tau_relation needs the two linear fits")
    return f_fit.coefficient("F2") / tau_fit.coefficient("tau2")


# ---------------------------------------------------------------------------
# Robustness and calibration
# ---------------------------------------------------------------------------


def robustness(
    loop: LoopSpec, noise: NoiseModel, f_star: float, steps: int | None = None
) -> float:
    """(F* - F_adiab) / F* for the peak fidelity f_star at this noise, with
    F_adiab at the third revival, where the adiabatic limit is reached."""
    tau3 = optimal_time(3, wedge_order(loop), loop.omega_scale)
    try:
        third = with_total_time(loop, tau3)
    except ConfigError as exc:  # tau3, or an arc of the loop rescaled to it, is inf or 0
        raise NumericalError(f"third revival time {tau3:g} at Omega {loop.omega_scale:g} "
                             f"overflows or underflows: {exc}") from exc
    f_adiab = mean_fidelity(third, noise, steps=steps)
    return (f_star - f_adiab) / f_star


def optimal_point_table(
    loop: LoopSpec,
    noise: NoiseModel,
    lambda_sq_list: list[float],
    steps: int | None = None,
) -> list[OptimalPoint]:
    """Optimal point per coupling strength (shared resolution)."""
    return [
        find_optimal_point(loop, noise.with_lambda_sq(lam), steps=steps)
        for lam in lambda_sq_list
    ]


DEFAULT_FIT_LAMBDAS = tuple(np.linspace(1e-4, 1e-3, 7))
_CALIBRATION_ROUNDS = 3
_CALIBRATION_REL_TOL = 0.02


def calibrate_noise(
    loop: LoopSpec,
    noise: NoiseModel,
    target_f2: float = 6.34,
    steps: int | None = None,
) -> tuple[float, FitResult, list[OptimalPoint]]:
    """Factor c such that the F2 fitted over DEFAULT_FIT_LAMBDAS with
    noise.scaled(c) matches target_f2 to 2%; returns c, that fit and the
    optimal_point_table at noise.scaled(c) that it was fitted to.

    lambda^2 D is linear in the rate and shift table, so the leading
    fidelity loss is linear in c and one proportional update per round
    converges immediately for small couplings. Raises NumericalError
    before any peak search when the table has no non-zero rate or shift,
    when no round reaches the tolerance, or when the fitted F2 is not
    positive, so that no scale can reach the target.
    """
    if not noise.with_lambda_sq(1.0).dissipative:
        raise NumericalError(f"no scale of this noise table reaches {target_f2:g}: all zero")
    scale = 1.0
    for _ in range(_CALIBRATION_ROUNDS):
        table = optimal_point_table(
            loop, noise.scaled(scale), list(DEFAULT_FIT_LAMBDAS), steps=steps
        )
        fit = fit_noise_response([(p.lambda_sq, p.f_star) for p in table], "f_linear")
        f2 = fit.coefficient("F2")
        if abs(f2 - target_f2) <= _CALIBRATION_REL_TOL * target_f2:
            return scale, fit, table
        if not f2 > 0:
            raise NumericalError(
                f"fitted F2 = {f2:g}: no scale of this noise table reaches {target_f2:g}"
            )
        scale *= target_f2 / f2
    raise NumericalError(
        f"fitted F2 = {f2:g} after {_CALIBRATION_ROUNDS} rounds, not within "
        f"{_CALIBRATION_REL_TOL:.0%} of {target_f2:g}"
    )
