"""Time-dependent Lindblad evolution for the driven tripod.

The bath couples to the |0> <-> |e> transition only. Jump operators come
from the eigenoperator decomposition of that coupling in the instantaneous
eigenbasis, at transition frequencies {0, +-Omega, +-2*Omega}; rates and
Lamb shifts are configuration inputs (flat high-temperature table by
default).

The master equation is integrated in the transport picture, where the
coherent generator is piecewise constant. In the coordinates of the
start-frame eigenbasis the pieces are simple:

  - coherent part:  Omega diag(FRAME_ENERGY) + G_arc, with G_arc the
    arc's constant transport generator: the exponent of the exact
    propagator's arc factor,
  - jump operators: block-masked F(t)^dag A F(t).

The full 16x16 superoperator is propagated, so one integration serves
every input state. Every generator maps Hermitian operators to Hermitian
ones, so in a real orthonormal basis of Hermitian 4x4 operators it is a
real matrix, and the integration runs in float64 there.
F(t)^dag A F(t) = r e^T + e r^T, with r the |0> row of the frame and e its
constant |e> row, so the dissipator is a fixed quadratic form in the four
entries of r: ten fixed terms per rate table.

Each step is a 4th-order Magnus step (Blanes, Casas, Oteo and Ros,
Phys. Rep. 470, 151, 2009): the exponent h/2 (A1 + A2) + (sqrt(3) h^2 /
12) [A2, A1] from the generator A = L_arc + lambda^2 D at the step's two
Gauss points, exponentiated by a batched Taylor polynomial with scaling
and squaring. The large constant coherent part L_arc is thereby taken
exactly, and the error comes from lambda^2 D alone. On a stationary arc,
where the frame's |0> row does not move (the polar meridian at phi = 0 of
a wedge loop), D and so A are constant, the series is the one term h A for
any h, and the arc takes one step: its exact exponential. Everything in
the exponents but the loop time and lambda^2 comes from a channel plan
(_ChannelPlan), built once per Omega, loop shape (the arcs at unit
duration), step split and rate table; the last plan is kept. It also holds
the 1-norm of every basis row, so each block of steps takes its squaring
count from a bound and forms its exponents already scaled. One plan serves
a whole grid of loop times at the one step split that _step_counts forms
and bounds: per block, consecutive points with the same squarings are
formed, exponentiated and multiplied together, and each point's Phi is
bit for bit that of its own call at that split. Its workspace holds the
step exponentials and their pairwise tree products, so a process runs one
channel at a time. The series converges when h ||A||_2 < pi, so a step
with h ||A||_F >= pi, at any point of the grid, raises NumericalError
before any exponential is taken; it is the only gate that sees an
under-resolved run, and it reads only the arcs that move. Phi preserves
the trace by construction, not by a check: the trace functional
annihilates L_E, L_G and every dissipator term, hence every Magnus
exponent, and so every step exponential fixes it up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import _ordered_product
from .loops import ArcKind, ArcSegment, LoopSpec, _number
from .propagators import _arc_generator, loop_times
from .tripod import DIM, FRAME_ENERGY, STATE_0, STATE_EXCITED, _frame_columns, eigenframe

FREQUENCY_MULTIPLES = (0, 1, -1, 2, -2)
DEFAULT_GAMMA0 = 0.5

# Lab-basis system-bath coupling operator.
COUPLING = np.zeros((DIM, DIM), dtype=complex)
COUPLING[STATE_0, STATE_EXCITED] = 1.0
COUPLING[STATE_EXCITED, STATE_0] = 1.0

# Frequency multiple E_l - E_i carried by frame element (i, l), and the
# pattern of (a, c, b, d) where the sandwich pairs equal frequencies.
_FREQ = FRAME_ENERGY[None, :] - FRAME_ENERGY[:, None]
_SAME_FREQ = _FREQ[:, None, :, None] == _FREQ[None, :, None, :]

# |e> row of the frame columns, the same at every path point in the fixed
# gauge, and the index pairs p <= q of the dissipator's quadratic terms.
_EXCITED_ROW = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2.0)
_TERM_PAIRS = np.triu_indices(DIM)

# Steps of an arc per block, and steps exponentiated at once, at most: the
# eight workspace buffers take 16 KB per step, so a block stays in cache and
# the workspace is bounded whatever the step count and grid.
_BLOCK_STEPS = 128

# Most channel steps per loop, given or default: the channel plan keeps 6 KB
# of basis rows per step, so at most 300 MB.
STEP_CEILING = 50_000

# Gauss-Legendre nodes of the Magnus step, as fractions of the step, and the
# Taylor coefficients c_k = 1/k! (c_11 = 0) of the step exponential as rows (c_3j+1,
# c_3j+2, c_3j) of its stages c_3j I + c_3j+1 X + c_3j+2 X^2, within a 1-norm of 0.2.
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_STAGE_COEFFS = np.roll(np.append(1.0 / np.cumprod([1.0, *range(1, 11)]), 0.0).reshape(4, 3), -1, 1)
_TAYLOR_RADIUS = 0.2

_IDENTITY4 = np.eye(DIM, dtype=complex)


@dataclass(frozen=True)
class NoiseModel:
    """Bath coupling strength and rate tables.

    gamma and lamb_shift map frequency multiples k (omega = k * Omega,
    k in {0, +-1, +-2}) to rates in units of inverse time.
    """

    lambda_sq: float
    gamma: dict[int, float] = field(default_factory=dict)
    lamb_shift: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.lambda_sq >= 0 and np.isfinite(self.lambda_sq)):
            raise ValueError("lambda_sq must be finite and >= 0")
        for k, g in self.gamma.items():
            if k not in FREQUENCY_MULTIPLES:
                raise ValueError(f"gamma keyed by unknown frequency multiple {k}")
            if not (g >= 0 and np.isfinite(g)):
                raise ValueError(f"decay rates must be finite and >= 0, got {g}")
        for k, s in self.lamb_shift.items():
            if k not in FREQUENCY_MULTIPLES:
                raise ValueError(f"lamb_shift keyed by unknown frequency multiple {k}")
            if not np.isfinite(s):
                raise ValueError(f"Lamb shifts must be finite, got {s}")

    @property
    def dissipative(self) -> bool:
        """True iff the bath acts: lambda_sq > 0 and some rate or Lamb
        shift is non-zero. Otherwise the evolution is exactly unitary."""
        return self.lambda_sq > 0 and (
            any(self.gamma.values()) or any(self.lamb_shift.values())
        )

    def rate(self, k: int) -> float:
        return float(self.gamma.get(k, 0.0))

    def shift(self, k: int) -> float:
        return float(self.lamb_shift.get(k, 0.0))

    def with_lambda_sq(self, lambda_sq: float) -> "NoiseModel":
        return replace(self, lambda_sq=lambda_sq)

    def scaled(self, factor: float) -> "NoiseModel":
        """Every rate and Lamb shift times factor; lambda^2 D is linear in
        the table, so this acts exactly as lambda_sq times factor."""
        return replace(
            self,
            gamma={k: factor * g for k, g in self.gamma.items()},
            lamb_shift={k: factor * s for k, s in self.lamb_shift.items()},
        )


def high_temperature_noise(lambda_sq: float) -> NoiseModel:
    """Flat rate table gamma(omega) = DEFAULT_GAMMA0, zero Lamb shifts."""
    return NoiseModel(lambda_sq=lambda_sq, gamma={k: DEFAULT_GAMMA0 for k in FREQUENCY_MULTIPLES})


def noise_from_dict(doc: dict) -> NoiseModel:
    """The rate tables of a noise file, whose lambda_sq must be 0."""
    rates = {key: {int(k): _number(v, f"{key}[{k}]") for k, v in doc.get(key, {}).items()}
             for key in ("gamma", "lamb_shift")}
    lambda_sq = _number(doc["lambda_sq"], "lambda_sq")
    if lambda_sq != 0:
        raise ValueError(f"lambda_sq is {lambda_sq!r}, not 0: the couplings come from lambda_sq")
    return NoiseModel(lambda_sq=lambda_sq, **rates)


# ---------------------------------------------------------------------------
# Superoperator integration in start-frame coordinates
# ---------------------------------------------------------------------------


def default_step_count(omega_tau: float) -> int | float:
    """Resolution of the Magnus-4 integration at Omega*tau: 2.4 steps per
    unit, at least 144 (48 per arc of a wedge loop), split across arcs by
    duration; a stationary arc takes one step instead of its share, its
    exact exponential, so the standard loop takes 1 + 48 + 48 up to
    Omega*tau 60.4 (LoopChannel.steps counts the exponentials taken). A
    grid takes the count of its largest Omega*tau. On wedge loops 1-3 over
    Omega*tau 0.25-240 at lambda^2 = 0.05 the steps stay at h*|A|_F <= 1.7,
    inside the pi gate.
    On the standard loop at lambda^2 <= 0.05 over Omega*tau 6-60.25,
    against RK4 at 8 x 60 steps per unit of Omega*tau (at least 8,000),
    the largest error of a Phi entry is 2.2e-9 (RK4 at 60 per unit:
    1.1e-6), and the mean fidelity moves by at most 1.4e-10. Past Omega*tau
    7.5e307 the count is inf, as a Python float product overflows without a warning."""
    count = 2.4 * float(omega_tau)
    return max(144, math.ceil(count)) if count < math.inf else count


def _hermitian_basis() -> np.ndarray:
    """Unitary whose columns are the row-major vecs of a real orthonormal
    basis of Hermitian 4x4 operators: E_ii, (E_ij + E_ji)/sqrt(2) and
    i(E_ji - E_ij)/sqrt(2) for i < j."""
    units = np.eye(DIM * DIM).reshape(DIM, DIM, DIM, DIM)  # units[i, j] = E_ij
    i, j = np.triu_indices(DIM, 1)
    diag = np.arange(DIM)
    elements = np.concatenate([
        units[diag, diag],
        np.sqrt(0.5) * (units[i, j] + units[j, i]),
        1j * np.sqrt(0.5) * (units[j, i] - units[i, j]),
    ])
    return elements.reshape(DIM * DIM, DIM * DIM).T


# Change of basis from real coordinates to row-major vec(sigma).
_BASIS = _hermitian_basis()


def _real_superop(superop: np.ndarray) -> np.ndarray:
    """A Hermiticity-preserving vec-basis superoperator in real coordinates."""
    return (_BASIS.conj().T @ superop @ _BASIS).real


def _commutator_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[h, .] acting on row-major vec(sigma)."""
    # kron(h, I) - kron(I, h^T), entry ((a, c), (b, d)) = h_ab d_cd - d_ab h_dc
    eye = _IDENTITY4
    product = (h[:, None, :, None] * eye[None, :, None, :]
               - eye[:, None, :, None] * h.T[None, :, None, :])
    return -1j * product.reshape(DIM * DIM, DIM * DIM)


def _dissipator_terms(gamma, shift) -> np.ndarray:
    """K of shape (10, 256): the dissipator at lambda^2 = 1 at a path point
    is sum over p <= q of r_p r_q K_pq, reshaped to 16x16 real coordinates,
    with r the |0> row of the frame there (see _TERM_PAIRS). gamma and shift
    hold the rates and the Lamb shifts at k = -2..2, in that order.

    In start-frame coordinates the coupling is b = F^dag A F = r e^T + e r^T,
    and A_k keeps the elements of b at frequency k, so the sum over k
    collapses into fixed weight tensors: the sandwich sum_k gamma_k
    A_k . A_k^dag weights b_ab b_cd by the rate of (a, b) where (c, d) has
    the same frequency, and with c_k = gamma_k / 2 + i S_k and
    X = sum_k c_k A_k^dag A_k the remaining terms are -(X . + . X^dag).
    The dissipator is quadratic in r, so its values at r = e_p + e_q give
    K by polarization.
    """
    p, q = _TERM_PAIRS
    # frames with |0> row e_p + e_q (2 e_p for p = q) and the |e> row: the
    # only rows the coupling A reads
    frames = np.zeros((len(p), DIM, DIM))
    frames[:, STATE_0] = np.eye(DIM)[p] + np.eye(DIM)[q]
    frames[:, STATE_EXCITED] = _EXCITED_ROW
    b = frames.transpose(0, 2, 1) @ COUPLING.real @ frames
    gamma = np.asarray(gamma)
    coeff = 0.5 * gamma + 1j * np.asarray(shift)
    w_sandwich = np.where(_SAME_FREQ, gamma[_FREQ + 2][:, None, :, None], 0.0)
    w_x = np.where(_FREQ[:, :, None] == _FREQ[:, None, :], coeff[_FREQ + 2][:, :, None], 0.0)
    x = (b[:, :, :, None] * b[:, :, None, :] * w_x).sum(axis=1)
    # view (m, a, c, b, d) of the row-major superoperator: rows (a, c), columns (b, d)
    d = (b[:, :, None, :, None] * b[:, None, :, None, :] * w_sandwich).astype(complex)
    for i in range(DIM):
        d[:, :, i, :, i] -= x
        d[:, i, :, i, :] -= x.conj()
    d = d.reshape(len(p), DIM * DIM, DIM * DIM)
    on_diag = d[p == q] / 4.0  # dissipator at r = e_p
    terms = d - on_diag[p] - on_diag[q]
    terms[p == q] = on_diag
    return _real_superop(terms).reshape(len(p), -1)


def _stationary(arc) -> bool:
    """True iff the frame's |0> row does not move along the arc: on a
    meridian at sin(phi0) == 0.0 it is exactly (cos phi0, 0, 0, 0), so D and
    the whole generator A are constant there, and the Magnus series of any
    step is the one term h A."""
    return arc.kind is ArcKind.MERIDIAN and math.sin(arc.fixed_angle) == 0.0


def _term_weights(arc, local_times: np.ndarray) -> np.ndarray:
    """Weights r_p r_q of _dissipator_terms' K at local arc times, one row
    per time, with r the |0> row of the frame there."""
    r = _frame_columns(*arc.angles(local_times))[:, STATE_0, :]
    p, q = _TERM_PAIRS
    return r[:, p] * r[:, q]


def _squarings(norm: float) -> int:
    """Squarings that take a 1-norm of at most norm to _TAYLOR_RADIUS."""
    return max(0, math.frexp(norm / _TAYLOR_RADIUS)[1])


def _expm(powers: np.ndarray, work: np.ndarray, squarings: int) -> np.ndarray:
    """exp(2^squarings X) of each matrix of the real (n, d, d) stack X =
    powers[0], powers[2] holding n identities, computed in powers[:2] and
    the C-contiguous (5, n, d, d) stack work; returned in powers[0] or [1].
    X's 1-norm is at most _TAYLOR_RADIUS, so the degree-10 Taylor polynomial
    (Paterson-Stockmeyer: five products) omits at most 0.2^11 / 11! =
    5.1e-16 of it, and squaring undoes the scaling (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179, 2005)."""
    x, x2, _ = powers
    x3, *stages = work
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    # the four stages, in one product of coefficients with [X; X^2; I]
    np.matmul(_STAGE_COEFFS, powers.reshape(3, -1), out=work[1:].reshape(4, -1))
    # sum_k c_k X^k = B0 + X^3 (B1 + X^3 (B2 + X^3 B3)), in the free x, x2
    out = stages[3]
    for stage, buf in zip(stages[2::-1], (x, x2, x)):
        np.matmul(x3, out, out=buf)
        out = np.add(buf, stage, out=buf)
    buf = x2
    for _ in range(squarings):
        np.matmul(out, out, out=buf)
        out, buf = buf, out
    return out


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] of real matrices, or of each pair in broadcast stacks."""
    return a @ b - b @ a


class _ChannelPlan:
    """What a channel needs that depends on neither the loop time nor
    lambda^2: per arc, the Magnus basis rows and their 1-norms N, the tau-free
    transport superoperator and the pieces of the convergence gate, plus
    a step workspace that every integration reuses.

    With D the dissipator at lambda^2 = 1 at a step's two Gauss points,
    Sigma = D1 + D2, Delta = D1 - D2, Q = [L_G, Delta] and C = [D2, D1],
    the 4th-order Magnus exponent h/2 (A1 + A2) + (sqrt(3) h^2 / 12)
    [A2, A1] of A = L_E + L_G / duration + lambda^2 D is exactly
    h L_E + L_G / n + lambda^2 (h/2 Sigma + c h/n Q) + lambda^4 c h^2 C,
    with c = sqrt(3) / 12. L_E is -i[Omega E, .], and L_G is
    -i[duration G, .], built from the unit arc, since G scales as
    1 / duration. Each A_k keeps the elements of one frequency, so the
    dissipator commutes with L_E and the term c h^2 [L_E, Delta] is
    exactly zero. The Gauss points sit at the fixed fractions
    u = (j + 1/2 -+ sqrt(3)/6) / n of the arc, so the rows Sigma, Q and C
    are the same for every loop time and coupling. D is a fixed quadratic
    form w @ K in the frame's |0> row, so each row is one product of the
    steps' weights with the commutators of the ten terms K. The gate's
    ||A||^2 leaves out <L_E, L_G>, zero since E is diagonal and G has a
    zero diagonal, and <L_G, D>, zero term by term. On a stationary arc
    w1 = w2 exactly, so its Q and C rows are exactly 0.0, and its one
    step (n = 1) has the exponent duration * A; the gate leaves it out.
    """

    def __init__(self, omega: float, arcs: tuple, counts: tuple, gamma: tuple,
                 shift: tuple) -> None:
        # first, as Python floats: ||L_E|| = 4 Omega, and the dissipator terms,
        # below 48 times the largest rate or Lamb shift, so rate_unit <= 2^1023
        self.e_norm, largest = 4.0 * float(omega), max(map(abs, (*gamma, *shift)))
        if self.e_norm == math.inf:
            raise ConfigError(f"Omega {omega:g} is too large for a channel: ||L_E|| overflows")
        if 128.0 * largest == math.inf:
            raise ConfigError(f"noise rate or Lamb shift {largest:g} is too large for a channel")
        # the rows hold D over rate_unit, the power of two just above its largest
        # term entry, and lambda^2 enters times rate_unit: the same bits, exactly
        terms = _dissipator_terms(gamma, shift)
        self.rate_unit = 2.0 ** math.frexp(float(np.abs(terms).max()))[1]  # 1.0 if D is 0
        terms = terms / self.rate_unit
        k = terms.reshape(-1, DIM**2, DIM**2)
        a, b = np.triu_indices(len(k), 1)
        self.counts = counts
        self.l_e = _real_superop(_commutator_superop(np.diag(omega * FRAME_ENERGY)))
        pair_terms = _commutator(k[a], k[b]).reshape(len(a), -1)
        along_e = terms @ (self.l_e.ravel() / self.e_norm)
        term_gram = terms @ terms.T
        self.l_g, self.basis, self.norms, self.gram, moving = [], [], [], [], []
        for (kind, *angles), n in zip(arcs, counts):
            arc = ArcSegment(kind, *angles, duration=1.0)
            moving.append(not _stationary(arc))
            l_g = _real_superop(_commutator_superop(_arc_generator(arc)))
            g_terms = _commutator(l_g, k).reshape(len(k), -1)
            w = _term_weights(arc, ((np.arange(n)[:, None] + _GAUSS_NODES) / n).ravel())
            w1, w2 = w[0::2], w[1::2]
            basis = np.empty((3, n, DIM**4))
            np.matmul(w1 + w2, terms, out=basis[0])
            np.matmul(w1 - w2, g_terms, out=basis[1])
            np.matmul(w2[:, a] * w1[:, b] - w2[:, b] * w1[:, a], pair_terms, out=basis[2])
            self.basis.append(basis.reshape(3, -1))
            self.norms.append(np.array([(np.ones(DIM**2) @ np.abs(row)).max(axis=-1)
                                        for row in basis.reshape(3, n, DIM**2, DIM**2)]))
            # <L_E, D> / (||L_E|| rate_unit) and ||D||^2 / rate_unit^2 at each Gauss point
            self.gram.append(np.stack([w @ along_e, np.einsum("ia,ab,ib->i", w, term_gram, w)]))
            self.l_g.append(l_g)
        # the Gauss points of all arcs in one row, each arc's first at arc_starts
        self.gram = np.concatenate(self.gram, axis=1)
        self.arc_starts = 2 * np.cumsum((0, *counts[:-1]))
        # per arc, as columns: the step count, ||L_G|| / n, the coherent part
        # L_G / n of every step and the fixed factors of the coefficients;
        # the gate reads only the arcs that move
        self.moving = np.array(moving)
        self.steps = np.array(counts)[:, None]
        self.l_g_step = np.array([l_g.ravel() / n for l_g, n in zip(self.l_g, counts)])[:, None]
        self.g_step = np.linalg.norm(self.l_g_step, axis=-1)
        self.factors = np.array([[0.5, np.sqrt(3.0) / 12.0 / n, 0.0] for n in counts])[:, None]
        # room for _BLOCK_STEPS steps: a block of m steps runs _BLOCK_STEPS // m points at once
        self.work = np.empty((8, _BLOCK_STEPS, DIM**2, DIM**2))
        self.work[2] = np.eye(DIM**2)
        self.flat_work = self.work[3:].reshape(-1)

    def reach(self, durations: np.ndarray, lambda_sq: float) -> np.ndarray:
        """Largest h ||A||_F over the Gauss points of every step of an arc
        that moves, at each column of the arcs' durations (arcs, points), 0
        if none moves: with h = duration / n and ||A||^2 = ||L_E + lambda^2
        D||^2 + ||L_G||^2 / duration^2, the largest hypot(duration ||L_E +
        lambda^2 D|| / n, ||L_G|| / n). ||L_E + lambda^2 D|| is squared only
        over top, the larger of ||L_E|| and lambda^2 rate_unit, so nothing
        over- or underflows into inf * 0, and a product past half the float
        range is inf. A stationary arc's exponent is its whole series."""
        mu = float(lambda_sq) * self.rate_unit
        top = max(self.e_norm, mu)
        e, m = (self.e_norm / top, mu / top) if top < math.inf else (0.0, 1.0)
        worst = np.maximum.reduceat(np.array([2.0 * e * m, m * m]) @ self.gram, self.arc_starts)
        slope = [top * max(e * e + w, 0.0) ** 0.5 / n for w, n in zip(worst.tolist(), self.counts)]
        fits = durations < [[math.ldexp(1.0, 1023) / p if p else math.inf] for p in slope]
        scaled = np.multiply(durations, np.array(slope)[:, None], where=fits,
                             out=np.full(durations.shape, math.inf))
        return np.hypot(scaled, self.g_step)[self.moving].max(axis=0, initial=0.0)

    def blocks(self, durations: np.ndarray, lambda_sq: float):
        """Per block of at most _BLOCK_STEPS steps: its basis rows, and at
        each column of the arcs' durations (arcs, points) the coefficients
        (points + 1, 3; the last row zero) and coherent parts (points, 256)
        of its exponents and the bound ||h L_E + L_G / n||_1 +
        max_i sum_j c_j N_ij on their 1-norms (no c_j is negative)."""
        c = np.sqrt(3.0) / 12.0
        lambda_sq = float(lambda_sq) * self.rate_unit
        h = durations / self.steps
        coherent = h[:, :, None] * self.l_e.ravel() + self.l_g_step
        # a spare zero row after the last point's
        coeffs = np.zeros((len(h), h.shape[1] + 1, 3))
        np.multiply(lambda_sq * h[:, :, None], self.factors, out=coeffs[:, :-1])
        coeffs[:, :-1, 2] = lambda_sq * h * (lambda_sq * c * h)
        coherent_norms = np.abs(coherent).reshape(*h.shape, DIM**2, DIM**2).sum(axis=2).max(axis=2)
        for n, basis, norms, *arc in zip(self.counts, self.basis, self.norms, coeffs, coherent,
                                         coherent_norms):
            arc_coeffs, arc_coherent, coherent_norm = arc
            bounds = (arc_coeffs[:-1, :, None] * norms).sum(axis=1) + coherent_norm[:, None]
            for first in range(0, n, _BLOCK_STEPS):
                last = min(first + _BLOCK_STEPS, n)
                yield (basis[:, first * DIM**4:last * DIM**4], arc_coeffs, arc_coherent,
                       bounds[:, first:last].max(axis=1))

    def propagate(self, loop: LoopSpec, lambda_sq: float, scales: np.ndarray) -> np.ndarray:
        """Phi in real coordinates at each duration scale of the loop, once
        the Magnus gate has passed at every one. Per block, consecutive
        points that share the squarings of their bounds go together, as many
        as the workspace holds: their exponents, already scaled, are one
        product of coefficients and basis rows plus the coherent parts,
        exponentiated in one call and multiplied point by point."""
        points = len(scales)
        durations = np.array([arc.duration for arc in loop.arcs])[:, None] * scales
        reach = self.reach(durations, lambda_sq)
        if not (reach < np.pi).all():
            first_failed = reach[~(reach < np.pi)][0]
            raise NumericalError(
                f"Magnus step h*|A|_F = {first_failed:.4g} not below pi; increase steps"
            )
        phi = np.empty((points, DIM**2, DIM**2))
        for block, (rows, coeffs, coherent, bounds) in enumerate(self.blocks(durations, lambda_sq)):
            m = rows.shape[1] // DIM**4
            fit = _BLOCK_STEPS // m
            squarings = [_squarings(bound) for bound in bounds.tolist()]
            first = 0
            while first < points:
                s, stop = squarings[first], first + 1
                while stop < min(first + fit, points) and squarings[stop] == s:
                    stop += 1
                scale, size = math.ldexp(1.0, -s), (stop - first) * m
                # a one-row product takes another BLAS kernel, which rounds
                # differently: where points can share a product, a lone one
                # takes a spare row, so that it rounds as it does beside another
                rows_used = max(stop - first, min(2, fit))
                exps = self.work[0, :rows_used * m].reshape(rows_used, m, DIM**4)
                np.matmul(coeffs[first:first + rows_used] * scale, rows,
                          out=exps.reshape(rows_used, -1))
                exps[:stop - first] += (coherent[first:stop] * scale)[:, None]
                powers = self.work[:3, :size]
                work = self.flat_work[:5 * powers[0].size].reshape(5, *powers[0].shape)
                steps = _expm(powers, work, s).reshape(-1, m, DIM**2, DIM**2)
                product = _ordered_product(steps.swapaxes(0, 1),
                                           work[0].reshape(steps.shape).swapaxes(0, 1))
                # the first block's product is Phi so far: a product with I is exact
                phi[first:stop] = product @ phi[first:stop] if block else product
                first = stop
        return phi


# One plan per set of constructor arguments; only the last is kept.
_channel_plan = lru_cache(maxsize=1)(_ChannelPlan)


def _loop_plan(loop: LoopSpec, noise: NoiseModel, counts: tuple) -> _ChannelPlan:
    """The channel plan of a loop's shape, its arcs without their
    durations, at per-arc step counts."""
    arcs = tuple((arc.kind, arc.fixed_angle, arc.start_angle, arc.end_angle) for arc in loop.arcs)
    rates = (tuple(get(k) for k in range(-2, 3)) for get in (noise.rate, noise.shift))
    return _channel_plan(loop.omega_scale, arcs, counts, *rates)


def _step_counts(loop: LoopSpec, steps: int | None, omega_tau: float) -> tuple:
    """Per-arc step counts of a channel at Omega*tau: steps, by default
    default_step_count(omega_tau), split by duration; one on a stationary
    arc. The only place a channel's count is formed: fewer steps than arcs
    raise NumericalError, more than STEP_CEILING raise ConfigError."""
    n = default_step_count(omega_tau) if steps is None else steps
    if n < len(loop.arcs):
        raise NumericalError(f"need at least one step per arc, got {n}")
    if n > STEP_CEILING:
        what = "default steps" if steps is None else "steps"
        raise ConfigError(f"Omega*tau {omega_tau:g} takes {n} {what}, above the ceiling "
                          f"of {STEP_CEILING}")
    return tuple(1 if _stationary(arc) else max(1, int(round(n * arc.duration / loop.total_time)))
                 for arc in loop.arcs)


@dataclass(frozen=True)
class LoopChannel:
    """Propagated quantum channel of a full loop at fixed noise, or of the
    loop at each time of an Omega*tau grid.

    phi is the 16x16 superoperator propagator in start-frame coordinates,
    or the (n, 16, 16) stack over the grid, trace-preserving to rounding
    by construction (see the module docstring); steps is the number of
    step exponentials taken, the per-arc counts summed over arcs and
    points, one for each stationary arc;
    apply() maps initial lab-frame density matrices to the final ones.
    """

    loop: LoopSpec
    steps: int
    phi: np.ndarray

    def apply(self, sigma0_lab: np.ndarray) -> np.ndarray:
        """Map a 4x4 density matrix, or a stack of shape (..., 4, 4), to
        the final state(s), with a leading grid axis for a grid's channel;
        both frames are built once per call."""
        f_start = eigenframe(*self.loop.start_point()).matrix
        f_end = eigenframe(*self.loop.end_point()).matrix
        sigma_frame = f_start.conj().T @ sigma0_lab @ f_start
        vec = sigma_frame.reshape(-1, DIM * DIM)
        final_frame = (vec @ np.swapaxes(self.phi, -1, -2)).reshape(
            *self.phi.shape[:-2], *sigma_frame.shape)
        return f_end @ final_frame @ f_end.conj().T


def loop_channel(
    loop: LoopSpec, noise: NoiseModel, steps: int | None = None, omega_tau=None
) -> LoopChannel:
    """Integrate the transport-picture master equation over the loop, or
    over the loop at each time of a 1-d Omega*tau grid, in one pass at one
    step split; each arc hands the next its end frame. Every point takes
    steps, by default the default count of the grid's largest Omega*tau,
    as _step_counts forms and bounds it before any plan is built."""
    scales = np.ones(1) if omega_tau is None else loop_times(loop, omega_tau) / loop.total_time
    largest = loop.omega_scale * loop.total_time if omega_tau is None else np.max(omega_tau)
    counts = _step_counts(loop, steps, largest)
    plan = _loop_plan(loop, noise, counts)
    phi = _BASIS @ plan.propagate(loop, noise.lambda_sq, scales) @ _BASIS.conj().T
    return LoopChannel(loop=loop, steps=sum(counts) * len(scales),
                       phi=phi[0] if omega_tau is None else phi)
