import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripod_holonomy import (
    ArcKind,
    ArcSegment,
    LoopSpec,
    NoiseModel,
    adiabatic_gate,
    high_temperature_noise,
    loop_channel,
    loop_propagator,
    mean_fidelity,
    wedge_loop,
    with_total_time,
)
from tripod_holonomy import lindblad
from tripod_holonomy.analysis import DEFAULT_FIT_LAMBDAS, optimal_point_table
from tripod_holonomy.errors import ConfigError, StepCountTooSmall
from tripod_holonomy.lindblad import (
    _BASIS,
    _BLOCK_STEPS,
    _EXCITED_ROW,
    _TAYLOR_RADIUS,
    COUPLING,
    DEFAULT_GAMMA0,
    FREQUENCY_MULTIPLES,
    STEP_CEILING,
    _commutator_superop,
    _channel_plan,
    _dissipator_terms,
    _expm,
    _loop_plan,
    _real_superop,
    _squarings,
    _stationary,
    _step_counts,
    _term_weights,
    default_step_count,
    noise_from_dict,
)
from tripod_holonomy.propagators import _arc_generator, start_frame
from tripod_holonomy.tripod import (
    FRAME_ENERGY,
    STATE_EXCITED,
    _frame_columns,
    eigenframe,
)

from conftest import OCTAHEDRON, OMEGA_TAU_STAR, UNEQUAL_NOISE
from oracles import lab_channel_phi, power_series_expm, reverse_loop, standard_not_loop

angles = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True, allow_nan=False)

# 2.4*Omega*tau / 3 = 3.5 * _BLOCK_STEPS steps per arc, above the 144-step
# floor: each arc is three full blocks and a partial one.
MULTI_BLOCK_LOOP = standard_not_loop(1.0, 3.5 * _BLOCK_STEPS / 0.8)

# Loops of both checks against step-by-step references; MULTI_BLOCK_LOOP
# (Omega*tau = 560) takes only the Magnus one, since RK4 at 8 x 60 steps
# per unit of Omega*tau would take 268,800 steps there.
CHANNEL_LOOPS = [
    *(standard_not_loop(1.0, omega_tau) for omega_tau in (6.0, 18.251, 42.0)),
    wedge_loop(2, 1.0, 23.7),
]
TEST_NOISES = [high_temperature_noise(0.05), UNEQUAL_NOISE.with_lambda_sq(0.05)]

# The trace functional in real coordinates: trace(sigma) = TRACE_ROW @ x.
TRACE_ROW = (np.eye(4).reshape(-1) @ _BASIS).real


def random_density(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    s = m @ m.conj().T
    return s / np.trace(s)


def pure(psi):
    v = np.asarray(psi, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# Test-side reference: the per-state Lindblad dissipator in the lab basis
# ---------------------------------------------------------------------------


def jump_operators(theta, phi):
    """Lab-basis eigenoperators {k: A_k} of the coupling at a path point,
    A_k = sum over energies E of P(E) COUPLING P(E + k Omega), with P(E) the
    eigenprojector of the Hamiltonian there."""
    f = eigenframe(theta, phi).matrix
    proj = {e: f[:, FRAME_ENERGY == e] @ f[:, FRAME_ENERGY == e].conj().T for e in (-1, 0, 1)}
    return {
        k: sum(proj[e] @ COUPLING @ proj[e + k] for e in proj if e + k in proj)
        for k in FREQUENCY_MULTIPLES
    }


def dissipator_lab(ops, noise, sigma):
    """sum_k gamma_k (A s A^dag - {A^dag A, s}/2) - i[sum_k S_k A^dag A, s]."""
    out = np.zeros((4, 4), dtype=complex)
    h_ls = np.zeros((4, 4), dtype=complex)
    for k, a in ops.items():
        ad_a = a.conj().T @ a
        out += noise.rate(k) * (a @ sigma @ a.conj().T - 0.5 * (ad_a @ sigma + sigma @ ad_a))
        h_ls += noise.shift(k) * ad_a
    return out - 1j * (h_ls @ sigma - sigma @ h_ls)


def vec_dissipators(arc, local_times, noise):
    """Production dissipator samples (lambda^2 included) at local arc times,
    mapped from real coordinates back to superoperators acting on
    row-major vec(sigma) in the coordinates of the start frame."""
    rates = ([get(k) for k in range(-2, 3)] for get in (noise.rate, noise.shift))
    terms = noise.lambda_sq * _dissipator_terms(*rates)
    real = (_term_weights(arc, local_times) @ terms).reshape(len(local_times), 16, 16)
    return _BASIS @ real @ _BASIS.conj().T


def superop_at(theta, phi, noise):
    """Production dissipator superoperator (no lambda^2 factor) at one path
    point, acting on row-major vec(sigma) in the eigenframe there."""
    arc = ArcSegment(ArcKind.MERIDIAN, fixed_angle=phi, start_angle=theta,
                     end_angle=theta, duration=1.0)
    return vec_dissipators(arc, np.array([0.0]), noise.with_lambda_sq(1.0))[0]


def apply_superop(superop, sigma):
    return (superop @ sigma.reshape(-1)).reshape(4, 4)


# ---------------------------------------------------------------------------
# Test-side references: Magnus-4 and RK4 on Phi one step at a time
# ---------------------------------------------------------------------------


def _arc_pieces(loop, steps, counts=None):
    """Per arc: the arc, its step count and size, and its coherent
    superoperator on row-major vec(sigma), at the split of steps across
    arcs by duration, or at the given per-arc counts."""
    energies = np.diag(loop.omega_scale * FRAME_ENERGY)
    if counts is None:
        counts = [max(1, int(round(steps * arc.duration / loop.total_time))) for arc in loop.arcs]
    for arc, n in zip(loop.arcs, counts):
        yield arc, n, arc.duration / n, _commutator_superop(energies + _arc_generator(arc))


def production_pieces(loop, steps):
    """_arc_pieces at the channel's own split of steps, in which an arc
    whose dissipator does not move takes one step."""
    return _arc_pieces(loop, steps, _step_counts(loop, steps, loop.omega_scale * loop.total_time))


def magnus_exponents(a1, a2, h):
    """The 4th-order Magnus exponents h/2 (A1 + A2) + (sqrt(3) h^2 / 12)
    [A2, A1] of generators at a step's two Gauss points, or of stacks of
    them."""
    return 0.5 * h * (a1 + a2) + np.sqrt(3.0) * h * h / 12.0 * (a2 @ a1 - a1 @ a2)


def tree_product(stack):
    """stack[n-1] @ ... @ stack[0] of an (n, d, d) stack, by pairwise
    products: an identity on top evens out a level of odd length."""
    while len(stack) > 1:
        if len(stack) % 2:
            stack = np.concatenate([stack, np.eye(stack.shape[-1])[None]])
        stack = stack[1::2] @ stack[0::2]
    return stack[0]


def sequential_magnus_phi(loop, noise):
    """Superoperator propagator by 4th-order Magnus steps at the production
    step count, split across arcs by duration, each step's exponent from
    the generators at its two Gauss points: all exponents of an arc
    exponentiated by one stacked eigendecomposition, then multiplied by
    tree_product."""
    maps = []
    steps = default_step_count(loop.omega_scale * loop.total_time)
    for arc, n, h, l_unit in _arc_pieces(loop, steps):
        gauss = (np.arange(n)[:, None] + 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0) * h
        a = l_unit + vec_dissipators(arc, gauss.ravel(), noise)
        w, v = np.linalg.eig(magnus_exponents(a[0::2], a[1::2], h))
        maps.append((v * np.exp(w)[:, None, :]) @ np.linalg.inv(v))
    return tree_product(np.concatenate(maps))


# Steps of an arc that sequential_rk4_phi forms at once, to bound its memory.
_RK4_CHUNK = 512


def sequential_rk4_phi(loop, noise, steps):
    """Superoperator propagator by classical RK4 steps, split across arcs by
    duration, with the generators La, Lb, Lc at step starts, midpoints and
    ends. On Phi' = L Phi a step is Phi <- M Phi with M = I + h/6 (K1 + 2 K2
    + 2 K3 + K4), K1 = La, K2 = Lb (I + h/2 K1), K3 = Lb (I + h/2 K2) and
    K4 = Lc (I + h K3): the stages k_i = K_i Phi. Every M of a chunk of
    steps is formed at once and the chunks multiplied by tree_product."""
    eye = np.eye(16)
    maps = []
    for arc, n, h, l_unit in _arc_pieces(loop, steps):
        for first in range(0, n, _RK4_CHUNK):
            last = min(first + _RK4_CHUNK, n)
            local = np.arange(2 * first, 2 * last + 1) * (h / 2.0)
            if last == n:
                local[-1] = arc.duration
            l_all = l_unit + vec_dissipators(arc, local, noise)
            la, lb, lc = l_all[0:-1:2], l_all[1::2], l_all[2::2]
            k2 = lb @ (eye + (0.5 * h) * la)
            k3 = lb @ (eye + (0.5 * h) * k2)
            k4 = lc @ (eye + h * k3)
            maps.append(tree_product(eye + (h / 6.0) * (la + 2.0 * k2 + 2.0 * k3 + k4)))
    return tree_product(np.array(maps))


class TestNoiseModel:
    def test_high_temperature_default_is_flat(self):
        noise = high_temperature_noise(0.01).scaled(0.7 / DEFAULT_GAMMA0)
        assert all(noise.rate(k) == 0.7 for k in FREQUENCY_MULTIPLES)
        assert all(noise.shift(k) == 0.0 for k in FREQUENCY_MULTIPLES)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=0.1, gamma={1: -1.0})
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=0.1, gamma={7: 1.0})
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=0.1, gamma={0: np.nan})
        with pytest.raises(ValueError):
            NoiseModel(lambda_sq=0.1, lamb_shift={1: np.inf})

    def test_reads_json_literal(self):
        # Keys the model does not hold, such as an old "label", are ignored.
        text = """{"lambda_sq": 0.0, "label": "custom",
                   "gamma": {"0": 0.5, "1": 0.4, "-1": 0.4, "2": 0.3, "-2": 0.3},
                   "lamb_shift": {"1": 0.05, "-1": -0.05}}"""
        assert noise_from_dict(json.loads(text)) == NoiseModel(
            lambda_sq=0.0,
            gamma={0: 0.5, 1: 0.4, -1: 0.4, 2: 0.3, -2: 0.3},
            lamb_shift={1: 0.05, -1: -0.05},
        )

    def test_dissipative_needs_coupling_and_a_rate_or_shift(self):
        assert high_temperature_noise(0.01).dissipative
        assert NoiseModel(lambda_sq=0.01, lamb_shift={1: 0.2}).dissipative
        assert not high_temperature_noise(0.0).dissipative
        assert not NoiseModel(lambda_sq=0.01, gamma={0: 0.0, 1: 0.0}).dissipative


class TestJumpOperators:
    """The test-side reference decomposition obeys the eigenoperator laws."""

    @given(theta=angles, phi=phases)
    @settings(max_examples=100, deadline=None)
    def test_completeness(self, theta, phi):
        ops = jump_operators(theta, phi)
        assert np.linalg.norm(sum(ops.values()) - COUPLING) <= 1e-11

    @given(theta=angles, phi=phases)
    @settings(max_examples=100, deadline=None)
    def test_adjoint_pairing(self, theta, phi):
        ops = jump_operators(theta, phi)
        for k in (1, 2):
            assert np.linalg.norm(ops[k].conj().T - ops[-k]) <= 1e-12

    def test_pole_operators_explicit(self):
        # at the pole the coupling only connects |0> (dark) with D+/- via |e>
        ops = jump_operators(0.0, 0.0)
        f = eigenframe(0.0, 0.0).matrix
        ket0, dplus, dminus = np.eye(4)[0], f[:, 2], f[:, 3]
        np.testing.assert_allclose(ops[0], np.zeros((4, 4)), atol=1e-14)
        expected_plus = (
            np.outer(ket0, dplus.conj()) - np.outer(dminus, ket0.conj())
        ) / np.sqrt(2)
        np.testing.assert_allclose(ops[1], expected_plus, atol=1e-14)
        np.testing.assert_allclose(ops[2], np.zeros((4, 4)), atol=1e-14)


class TestDissipator:
    """The production superoperator, checked on its own and against the
    per-state reference."""

    def test_matches_per_state_reference(self):
        # the real-coordinate samples, mapped back to the vec basis, column
        # by column against the reference acting on each unit E_bd
        loop = wedge_loop(2, 1.0, 23.7)
        units = np.eye(16).reshape(16, 4, 4)
        worst = 0.0
        for arc in loop.arcs:
            times = np.linspace(0.0, arc.duration, 5)
            superops = vec_dissipators(arc, times, UNEQUAL_NOISE)
            for t, superop in zip(times, superops):
                f = eigenframe(*arc.angles(t)).matrix
                ops = jump_operators(*arc.angles(t))
                expected = np.stack([
                    (f.conj().T @ dissipator_lab(ops, UNEQUAL_NOISE, f @ e @ f.conj().T) @ f)
                    .reshape(-1)
                    for e in units
                ], axis=-1)
                worst = max(worst, np.abs(superop - expected).max())
        assert worst <= 1e-12

    @given(theta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
           phi=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_excited_row_of_the_frame_is_constant(self, theta, phi):
        # the quadratic form in the |0> row assumes this row never moves
        row = _frame_columns(np.array(theta), np.array(phi))[STATE_EXCITED]
        assert np.array_equal(row, _EXCITED_ROW)

    def test_zero_rates_give_zero(self):
        silent = NoiseModel(lambda_sq=1.0)
        np.testing.assert_allclose(superop_at(0.7, 0.3, silent), np.zeros((16, 16)), atol=1e-15)

    def test_maximally_mixed_is_stationary_for_flat_rates(self):
        # flat high-T rates: sum_k (A_k A_k^dag - A_k^dag A_k) cancels exactly
        superop = superop_at(1.1, 0.4, high_temperature_noise(0.3).scaled(0.8 / DEFAULT_GAMMA0))
        out = apply_superop(superop, np.eye(4, dtype=complex) / 4.0)
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-14)

    def test_traceless_and_hermitian(self, rng):
        noise = high_temperature_noise(0.3).scaled(0.8 / DEFAULT_GAMMA0)
        for _ in range(100):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            out = apply_superop(superop_at(theta, phi, noise), random_density(rng))
            assert abs(np.trace(out)) <= 1e-11
            assert np.linalg.norm(out - out.conj().T) <= 1e-11

    def test_lamb_shift_contributes_commutator(self, rng):
        shifted = NoiseModel(lambda_sq=1.0, lamb_shift={1: 0.2, -1: 0.2})
        out = apply_superop(superop_at(0.7, 0.3, shifted), random_density(rng))
        assert np.linalg.norm(out) > 0
        assert abs(np.trace(out)) <= 1e-12


class TestEvolveDensity:
    def test_unitary_limit_matches_exact_propagator(self, not_loop, rng):
        u = loop_propagator(not_loop).matrix
        channel = loop_channel(not_loop, high_temperature_noise(0.0))
        for _ in range(3):
            # dark-subspace pure input
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            sigma0 = pure(np.concatenate([c, [0.0, 0.0]]))
            out = channel.apply(sigma0)
            expected = u @ sigma0 @ u.conj().T
            assert np.linalg.norm(out - expected) <= 1e-7

    def test_unitary_limit_wedge_two(self):
        loop = wedge_loop(2, 1.0, 23.7)
        u = loop_propagator(loop).matrix
        sigma0 = pure([1.0, 0.0, 0.0, 0.0])
        out = loop_channel(loop, high_temperature_noise(0.0)).apply(sigma0)
        assert np.linalg.norm(out - u @ sigma0 @ u.conj().T) <= 1e-7

    def test_trace_and_hermiticity_preserved_on_grid(self):
        sigma0 = pure([1.0, 1.0, 0.0, 0.0])
        for omega_tau in (6.0, 18.25, 33.0):
            for lam in (0.0, 0.02, 0.05):
                loop = standard_not_loop(1.0, omega_tau)
                out = loop_channel(loop, high_temperature_noise(lam)).apply(sigma0)
                assert abs(np.trace(out) - 1.0) <= 1e-8
                assert np.linalg.norm(out - out.conj().T) <= 1e-8
                assert np.linalg.eigvalsh(out).min() >= -1e-6

    def test_monotone_damping_in_coupling(self, not_loop):
        target = loop_propagator(not_loop).matrix  # revival: exact NOT
        sigma0 = pure([1.0, 0.0, 0.0, 0.0])
        expected = target @ sigma0 @ target.conj().T
        fids = []
        for lam in (0.0, 0.01, 0.03, 0.05):
            out = loop_channel(not_loop, high_temperature_noise(lam)).apply(sigma0)
            fids.append(np.trace(expected @ out).real)
        assert all(b < a for a, b in zip(fids[:-1], fids[1:]))

    def test_under_resolved_run_rejected(self):
        loop = standard_not_loop(1.0, 2000.0)
        with pytest.raises(StepCountTooSmall):
            loop_channel(loop, high_temperature_noise(0.05), steps=3)

    @pytest.mark.parametrize(("steps", "omega_tau", "error", "message"), [
        (2, None, StepCountTooSmall, "need at least one step per arc, got 2"),
        (50_001, None, ConfigError, "takes 50001 steps, above the ceiling of 50000"),
        (None, [18.25, 1e6], ConfigError,
         "Omega*tau 1e+06 takes 2400000 default steps, above the ceiling of 50000"),
    ], ids=["floor", "given-ceiling", "default-ceiling"])
    def test_step_bounds_hold_before_any_plan(self, monkeypatch, steps, omega_tau, error,
                                              message):
        def no_plan(*args):
            raise AssertionError("a channel plan was built")

        monkeypatch.setattr(lindblad, "_loop_plan", no_plan)
        assert STEP_CEILING == 50_000
        loop = standard_not_loop(1.0, 18.25)
        with pytest.raises(error) as raised:
            loop_channel(loop, high_temperature_noise(0.05), steps, omega_tau)
        assert message in str(raised.value)

    @pytest.mark.parametrize("wedge", [1, 2, 3])
    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_default_steps_pass_the_magnus_gate(self, wedge, noise):
        # both sides of the 144-step floor; the largest h*|A|_F is near
        # Omega*tau = 60, where the floor gives way to 2.4 per unit
        for omega_tau in (0.25, 1.0, 6.0, 18.251, 42.0, 60.0, 61.0, 65.0, 120.0, 240.0):
            loop_channel(wedge_loop(wedge, 1.0, omega_tau), noise)

    def test_overflowed_run_rejected(self):
        # h*|A|_F is about 133 here, far outside the Magnus gate
        loop = standard_not_loop(1.0, 2000.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepCountTooSmall):
            loop_channel(loop, high_temperature_noise(0.05), steps=60)

    @pytest.mark.parametrize("loop", [*CHANNEL_LOOPS, MULTI_BLOCK_LOOP])
    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_channel_matches_sequential_magnus(self, loop, noise):
        phi = loop_channel(loop, noise).phi
        assert np.abs(phi - sequential_magnus_phi(loop, noise)).max() <= 1e-12

    @pytest.mark.parametrize("loop", CHANNEL_LOOPS)
    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_channel_matches_fine_rk4(self, loop, noise):
        # RK4 at 8 x 60 steps per unit of Omega*tau (at least 8 x 1,000)
        steps = 8 * max(1000, int(np.ceil(60.0 * loop.omega_scale * loop.total_time)))
        phi = loop_channel(loop, noise).phi
        assert np.abs(phi - sequential_rk4_phi(loop, noise, steps)).max() <= 1e-8

    def test_multi_block_loop_ends_in_a_partial_block(self):
        loop = MULTI_BLOCK_LOOP
        steps = default_step_count(loop.omega_scale * loop.total_time)
        for arc in loop.arcs:
            n = int(round(steps * arc.duration / loop.total_time))
            assert n > _BLOCK_STEPS and n % _BLOCK_STEPS

    @pytest.mark.parametrize("omega_tau", [42.0, 60.25])
    @pytest.mark.parametrize("lambda_sq", [0.005, 0.05])
    def test_default_steps_resolve_the_fidelity(self, omega_tau, lambda_sq):
        loop = standard_not_loop(1.0, omega_tau)
        noise = high_temperature_noise(lambda_sq)
        f_default = mean_fidelity(loop, noise)
        f_fine = mean_fidelity(loop, noise, steps=4 * default_step_count(omega_tau))
        assert abs(f_default - f_fine) <= 1e-9

    def test_channel_trace_defect_small_at_default_steps(self, not_loop):
        # worst-case |trace(out) - trace(in)| over unit-Frobenius inputs
        phi = loop_channel(not_loop, high_temperature_noise(0.03)).phi
        vec_identity = np.eye(4).reshape(-1)
        assert np.linalg.norm(vec_identity @ phi - vec_identity) <= 1e-10

    def test_stacked_apply_matches_single_apply(self, not_loop, rng):
        ch = loop_channel(not_loop, high_temperature_noise(0.03))
        stack = np.array([random_density(rng) for _ in range(5)])
        out = ch.apply(stack)
        assert out.shape == stack.shape
        for sigma, got in zip(stack, out):
            np.testing.assert_allclose(got, ch.apply(sigma), rtol=0, atol=1e-14)


def plan_of(loop, noise, steps):
    """The channel plan of the loop at a total step count, and the
    durations of its arcs as one column (arcs, 1)."""
    plan = _loop_plan(loop, noise, _step_counts(loop, steps, loop.omega_scale * loop.total_time))
    return plan, np.array([[arc.duration] for arc in loop.arcs])


def direct_reach(loop, noise, steps):
    """Largest h ||A||_F over every Gauss point of the production split,
    with A = L_arc + lambda^2 D formed one superoperator at a time in the
    vec basis, where the Frobenius norm is the same as in real coordinates.
    An arc whose A is the same at every Gauss point is left out: its
    Magnus series is the one term h A, exact at any step size."""
    reach = 0.0
    for arc, n, h, l_unit in production_pieces(loop, steps):
        gauss = (np.arange(n)[:, None] + 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0) * h
        a = l_unit + vec_dissipators(arc, gauss.ravel(), noise)
        if np.all(a == a[0]):
            continue
        reach = max(reach, h * np.sqrt(np.square(np.abs(a)).sum(axis=(1, 2)).max()))
    return reach


class TestChannelPlan:
    """One plan per loop shape, step split and rate table serves every loop
    time and coupling, and no result depends on which plan came before."""

    @pytest.mark.parametrize("wedge", [1, 2, 3])
    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_gram_gate_matches_the_direct_norms(self, wedge, noise):
        for omega_tau in (0.25, 18.251, 60.0, 240.0):
            loop = wedge_loop(wedge, 1.0, omega_tau)
            steps = default_step_count(omega_tau)
            expected = direct_reach(loop, noise, steps)
            plan, durations = plan_of(loop, noise, steps)
            (got,) = plan.reach(durations, noise.lambda_sq)
            assert abs(got - expected) <= 1e-12 * expected

    @pytest.mark.parametrize(("omega", "lambda_sq", "gamma0"), [
        (1e300, 0.05e300, 0.5),  # durations square to 0 and ||L_E|| to inf
        (1e-300, 0.05e-300, 0.5),  # durations square to inf
        (1.0, 0.05e160, 0.5e-160),  # lambda^4 overflows and ||D||^2 underflows
    ], ids=["omega-1e300", "omega-1e-300", "lambda-sq-5e158"])
    def test_gate_forms_no_square(self, omega, lambda_sq, gamma0):
        # h ||A||_F reads only Omega*tau, lambda^2 / Omega and lambda^2 gamma0:
        # each split takes the value of the standard one, with no warning
        loop, noise = wedge_loop(2, 1.0, 18.251), high_temperature_noise(0.05)
        plan, durations = plan_of(loop, noise, None)
        (expected,) = plan.reach(durations, noise.lambda_sq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noise = high_temperature_noise(lambda_sq).scaled(gamma0 / DEFAULT_GAMMA0)
            plan, durations = plan_of(wedge_loop(2, omega, 18.251 / omega), noise, None)
            (got,) = plan.reach(durations, noise.lambda_sq)
        assert abs(got - expected) <= 1e-13 * expected

    def test_channel_reads_lambda_sq_times_the_rates(self):
        # the plan holds D over a power of two and takes lambda^2 times it, so a
        # table scaled by 2^-600 at lambda^2 scaled by 2^600 gives the same bits
        loop = wedge_loop(2, 1.3, 23.7)
        expected = loop_channel(loop, UNEQUAL_NOISE.with_lambda_sq(0.05)).phi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = UNEQUAL_NOISE.scaled(2.0**-600).with_lambda_sq(0.05 * 2.0**600)
            assert np.array_equal(loop_channel(loop, split).phi, expected)

    @pytest.mark.parametrize(("omega", "gamma0", "named"), [
        (1e308, 0.5, "Omega 1e+308 is too large"),
        (1.0, 1e307, "rate or Lamb shift 1e+307 is too large"),
    ], ids=["omega", "rate"])
    def test_plan_refuses_what_it_cannot_hold(self, omega, gamma0, named):
        loop = wedge_loop(1, omega, 18.25 / omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as refused:
                noise = NoiseModel(1e-300, gamma=dict.fromkeys(FREQUENCY_MULTIPLES, gamma0))
                loop_channel(loop, noise)
        assert named in str(refused.value)

    def test_dropped_gram_terms_are_exactly_zero(self, rng):
        # the gate leaves out <L_E, L_G> and <L_G, D>: both must stay 0.0
        # for every rate table and arc, reversed arcs included
        loops = [wedge_loop(n, 1.3, 7.0) for n in (1, 2, 3)]
        l_e = _real_superop(_commutator_superop(np.diag(1.3 * FRAME_ENERGY)))
        l_gs = [_real_superop(_commutator_superop(_arc_generator(arc)))
                for loop in loops + [reverse_loop(loop) for loop in loops]
                for arc in loop.arcs]
        assert all(np.vdot(l_e, l_g) == 0.0 for l_g in l_gs)
        for _ in range(20):
            terms = _dissipator_terms(rng.uniform(0.0, 1.0, 5), rng.normal(size=5))
            for l_g in l_gs:
                assert not np.any(terms @ l_g.ravel())

    def test_dissipator_terms_commute_with_the_frame_energy(self, rng):
        # each A_k keeps the elements of one frequency, so [L_E, K_pq] is
        # exactly 0.0 and the plan keeps no Magnus row [L_E, Delta]
        for _ in range(50):
            omega = rng.uniform(0.1, 5.0)
            l_e = _real_superop(_commutator_superop(np.diag(omega * FRAME_ENERGY)))
            terms = _dissipator_terms(rng.uniform(0.0, 1.0, 5), rng.normal(size=5))
            k = terms.reshape(-1, 16, 16)
            assert not np.any(l_e @ k - k @ l_e)

    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_trace_functional_annihilates_every_exponent_row(self, noise):
        # t L_E = t L_G = 0 and t kills each Magnus basis row, so t kills
        # every step exponent: each step exponential, and Phi, keeps the
        # trace up to rounding, and no check after integration is needed
        loops = [wedge_loop(n, 1.0, 18.251) for n in (1, 2, 3)]
        for loop in loops + [reverse_loop(loop) for loop in loops]:
            plan, _ = plan_of(loop, noise, default_step_count(loop.omega_scale * loop.total_time))
            assert not np.any(TRACE_ROW @ plan.l_e)
            for l_g, rows in zip(plan.l_g, plan.basis):
                assert not np.any(TRACE_ROW @ l_g)
                assert np.abs(TRACE_ROW @ rows.reshape(-1, 16, 16)).max() <= 1e-14

    @pytest.mark.parametrize(("wedge", "omega_tau", "taken"), [(1, 60.25, 97), (2, 18.0, 88)])
    def test_channel_records_the_steps_taken(self, wedge, omega_tau, taken):
        # default_step_count asks for 145 and 144 here; the first arc, which
        # does not move, takes one exponential and the others their shares
        # of the duration split: 1 + 48 + 48 and 1 + 29 + 58
        loop = wedge_loop(wedge, 1.0, omega_tau)
        assert default_step_count(omega_tau) != taken
        assert loop_channel(loop, high_temperature_noise(0.05)).steps == taken

    def test_under_resolved_message_reads_the_largest_step(self):
        loop = standard_not_loop(1.0, 18.25)
        with pytest.raises(StepCountTooSmall, match=r"h\*\|A\|_F = 6\.284 not below pi"):
            loop_channel(loop, high_temperature_noise(0.05), steps=12)

    def test_warm_channel_allocates_little(self):
        # numpy reports its buffers to tracemalloc; the step exponentials
        # and their product live in the plan's workspace
        loop = standard_not_loop(1.0, OMEGA_TAU_STAR[0])
        noise = high_temperature_noise(1e-3)
        loop_channel(loop, noise)
        tracemalloc.start()
        try:
            loop_channel(loop, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_warm_multi_block_channel_allocates_little(self):
        # blocks after an arc's first read its basis rows at a stride; a
        # copy of them would take 1 MB here
        noise = high_temperature_noise(1e-3)
        loop_channel(MULTI_BLOCK_LOOP, noise)
        tracemalloc.start()
        try:
            loop_channel(MULTI_BLOCK_LOOP, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_results_do_not_depend_on_earlier_channels(self):
        loop = standard_not_loop(1.0, OMEGA_TAU_STAR[0])
        noise = high_temperature_noise(1e-3)
        _channel_plan.cache_clear()
        cold = mean_fidelity(loop, noise)
        channel = loop_channel(loop, noise)
        phi = channel.phi.copy()
        warm = mean_fidelity(loop, noise)
        loop_channel(wedge_loop(2, 1.0, 23.7), UNEQUAL_NOISE.with_lambda_sq(0.05))
        loop_channel(with_total_time(loop, 19.0), noise)
        after_other = mean_fidelity(loop, noise)
        assert cold == warm == after_other
        assert np.array_equal(channel.phi, phi)

    def test_optimal_table_builds_one_plan(self):
        loop = standard_not_loop(1.0, OMEGA_TAU_STAR[0])
        _channel_plan.cache_clear()
        optimal_point_table(loop, high_temperature_noise(0.0), list(DEFAULT_FIT_LAMBDAS))
        assert _channel_plan.cache_info().misses == 1


def per_point_phis(loop, noise, grid, steps=None):
    """Phi of one loop_channel call per point of an Omega*tau grid."""
    return np.array([
        loop_channel(with_total_time(loop, ot / loop.omega_scale), noise, steps).phi
        for ot in grid
    ])


# wedge:1 over a grid whose points have four default splits between them
MIXED_SPLIT = (wedge_loop(1, 1.0, 1.0), UNEQUAL_NOISE.with_lambda_sq(0.05))
MIXED_SPLIT_GRID = np.array([6.0, 30.0, 59.0, 61.0, 80.0, 120.0])


class TestGridPass:
    """One loop_channel call over an Omega*tau grid takes one step split,
    by default that of the grid's largest Omega*tau, and one pass from one plan;
    each point's Phi is bit for bit that of its own call at that count,
    which up to Omega*tau 60.4 is its own default count."""

    @pytest.mark.parametrize("wedge", [1, 2, 3])
    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_grid_matches_per_point_calls(self, wedge, noise):
        loop, grid = wedge_loop(wedge, 1.0, 1.0), np.linspace(0.25, 60.25, 13)
        channel = loop_channel(loop, noise, omega_tau=grid)
        expected = per_point_phis(loop, noise, grid)
        assert channel.phi.shape == (13, 16, 16)
        assert np.array_equal(channel.phi, expected)
        single = [loop_channel(with_total_time(loop, ot), noise).steps for ot in grid]
        assert channel.steps == sum(single)

    def test_mixed_split_grid(self):
        # the points' own default counts are 144 x 3, 147, 192 and 288, so
        # four splits; every point takes the 288 of Omega*tau 120, 1 + 96 + 96
        # with the first arc, which does not move, as one exponential
        loop, noise = MIXED_SPLIT
        steps = default_step_count(MIXED_SPLIT_GRID[-1])
        assert steps == 288
        _channel_plan.cache_clear()
        channel = loop_channel(loop, noise, omega_tau=MIXED_SPLIT_GRID)
        assert _channel_plan.cache_info().misses == 1
        assert channel.steps == 6 * 193
        assert np.array_equal(channel.phi, per_point_phis(loop, noise, MIXED_SPLIT_GRID, steps))

    # (wedge, Omega, total time, Omega*tau): templates whose loop times at
    # these points of np.arange(60, 300, 5 / 12), where 2.4 Omega*tau is an
    # integer, once rounded 2.4 Omega tau to the other side of it
    @pytest.mark.parametrize(("wedge", "omega", "total", "omega_tau"), [
        (1, 0.7, 7.0, 60.416666666666664),
        (1, 1.0, 7.0, 60.416666666666664),
        (1, 1.3, 7.0, 60.416666666666664),
        (2, 1.7, 7.0, 60.83333333333333),
        (2, 2.9, 1.0, 60.83333333333333),
        (2, 2.9, 7.0, 60.83333333333333),
        (3, 0.7, 3.0, 60.416666666666664),
        (3, 1.7, 3.0, 60.416666666666664),
        (3, 2.9, 1.0, 60.416666666666664),
        (3, 2.9, 3.0, 60.416666666666664),
    ])
    def test_split_depends_only_on_the_largest_omega_tau(self, monkeypatch, wedge, omega,
                                                         total, omega_tau):
        class PlanAsked(Exception):
            pass

        def asked(loop, noise, counts):
            raise PlanAsked(counts)

        def counts(template):
            with pytest.raises(PlanAsked) as plan:
                loop_channel(template, high_temperature_noise(0.05), omega_tau=[omega_tau])
            return plan.value.args[0]

        monkeypatch.setattr(lindblad, "_loop_plan", asked)
        assert counts(wedge_loop(wedge, omega, total)) == counts(wedge_loop(wedge, 1.0, 1.0))

    def test_mixed_split_grid_resolves_the_fidelity(self):
        loop, noise = MIXED_SPLIT
        f = mean_fidelity(loop, noise, omega_tau=MIXED_SPLIT_GRID)
        f_fine = mean_fidelity(loop, noise, 4 * 288, omega_tau=MIXED_SPLIT_GRID)
        assert np.abs(f - f_fine).max() <= 1e-11

    def test_multi_block_grid(self):
        # every arc spans three full blocks and a partial one, one point per chunk
        loop, noise = MULTI_BLOCK_LOOP, high_temperature_noise(0.05)
        steps = default_step_count(loop.omega_scale * loop.total_time)
        grid = loop.omega_scale * loop.total_time * np.array([0.99, 1.0])
        channel = loop_channel(loop, noise, steps, omega_tau=grid)
        assert np.array_equal(channel.phi, per_point_phis(loop, noise, grid, steps))

    def test_points_astride_a_squaring_boundary(self):
        # at lambda^2 = 0.05 the blocks of the moving arcs take no squaring
        # at Omega*tau 10.5 and one at 11.0 (24.5 and 25.0: one and two):
        # each point of a pair that could share an exponential keeps its
        # own squarings; one block per arc here
        loop, noise = wedge_loop(1, 1.0, 1.0), high_temperature_noise(0.05)
        grid = np.array([10.5, 11.0, 24.5, 25.0])
        plan, durations = plan_of(loop, noise, 144)
        blocks = list(plan.blocks(durations * grid, noise.lambda_sq))
        assert len(blocks) == len(loop.arcs) and list(plan.moving) == [False, True, True]
        for moving, (rows, _, _, bounds) in zip(plan.moving, blocks):
            assert len(plan.work[0]) // (rows.shape[1] // 256) >= 2
            if moving:
                assert [_squarings(b) for b in bounds] == [0, 1, 1, 2]
        channel = loop_channel(loop, noise, omega_tau=grid)
        assert np.array_equal(channel.phi, per_point_phis(loop, noise, grid))

    def test_a_lone_point_rounds_as_one_of_a_pair(self):
        # here a point's exponents from a one-row product differ from those
        # of a two-row one in a few last bits; the call at Omega*tau 30
        # alone must match the grid, where it shares its products with 42
        loop, noise = wedge_loop(3, 1.0, 1.0), high_temperature_noise(0.3)
        grid = np.array([30.0, 42.0])
        channel = loop_channel(loop, noise, omega_tau=grid)
        assert np.array_equal(channel.phi, per_point_phis(loop, noise, grid))

    def test_gate_reads_the_failing_point_before_any_exponential(self, monkeypatch):
        # 20 steps per arc pass the gate at Omega*tau 18.25 and 30 (h*|A|_F
        # 1.26 and 2.02), not at 2000, the grid's last point: the message
        # reads that point's reach
        loop, noise = standard_not_loop(1.0, 1.0), high_temperature_noise(0.05)
        with pytest.raises(StepCountTooSmall) as alone:
            loop_channel(with_total_time(loop, 2000.0), noise, steps=60)
        assert "133.4" in str(alone.value)
        taken = []
        monkeypatch.setattr(lindblad, "_expm", lambda *args: taken.append(args))
        with pytest.raises(StepCountTooSmall) as grid:
            loop_channel(loop, noise, steps=60, omega_tau=np.array([18.25, 30.0, 2000.0]))
        assert str(grid.value) == str(alone.value)
        assert not taken

    def test_warm_grid_allocates_little(self):
        # one plan and its workspace serve all 13 points; what the call
        # allocates is the (13, 16, 16) Phi stacks and per-point coefficients
        loop, noise = wedge_loop(1, 1.0, 1.0), high_temperature_noise(0.05)
        grid = np.linspace(0.25, 60.25, 13)
        loop_channel(loop, noise, omega_tau=grid)
        tracemalloc.start()
        try:
            loop_channel(loop, noise, omega_tau=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 384 * 1024

    def test_grid_channel_applies_per_point(self, rng):
        loop, noise = wedge_loop(2, 1.0, 1.0), high_temperature_noise(0.03)
        grid = np.array([6.0, 18.0])
        channel = loop_channel(loop, noise, omega_tau=grid)
        sigma = np.array([random_density(rng) for _ in range(3)])
        out = channel.apply(sigma)
        assert out.shape == (2, 3, 4, 4)
        for ot, got in zip(grid, out):
            alone = loop_channel(with_total_time(loop, ot), noise).apply(sigma)
            np.testing.assert_allclose(got, alone, rtol=0, atol=1e-14)


# A meridian at any fixed angle, exact multiples of pi/2 among them, an
# equator arc, or an arc of a wedge loop or of its reverse.
_QUARTERS = [0.0, -0.0, np.pi / 2, np.pi, 1.5 * np.pi, 2 * np.pi]
_COLATITUDES = st.floats(min_value=0.0, max_value=np.pi / 2)
ARC_ANGLES = st.one_of(
    st.tuples(st.just(ArcKind.MERIDIAN),
              st.one_of(st.sampled_from(_QUARTERS), st.floats(1e-3, 2 * np.pi - 1e-3)),
              _COLATITUDES, _COLATITUDES),
    st.tuples(st.just(ArcKind.EQUATOR), st.sampled_from([0.0, np.pi / 2]), phases, phases),
    st.builds(lambda n, reverse, i: (reverse_loop if reverse else lambda loop: loop)(
        wedge_loop(n, 1.0, 1.0)).arcs[i], st.integers(1, 4), st.booleans(), st.integers(0, 2)
    ).map(lambda arc: (arc.kind, arc.fixed_angle, arc.start_angle, arc.end_angle)),
)


# the standard loop turned by phi0 = 0.3, which has no stationary arc
TURNED_LOOP = LoopSpec(omega_scale=1.0, arcs=(
    ArcSegment(ArcKind.MERIDIAN, 0.3, 0.0, np.pi / 2, 1.0),
    ArcSegment(ArcKind.EQUATOR, np.pi / 2, 0.3, 0.3 + np.pi / 2, 1.0),
    ArcSegment(ArcKind.MERIDIAN, 0.3 + np.pi / 2, np.pi / 2, 0.0, 1.0),
))


class TestStationaryArc:
    """An arc whose frame |0> row does not move, a meridian at
    sin(phi0) == 0.0, has a constant generator A, so its Magnus series is
    the one term duration * A at any step size: the channel takes it as
    one exponential, which the gate does not read."""

    @settings(max_examples=60, deadline=None)
    @given(angles=ARC_ANGLES)
    def test_rows_are_constant_exactly_where_the_arc_is_stationary(self, angles):
        kind, fixed, start, end = angles
        assume(abs(end - start) >= 1e-2)
        arc, n = ArcSegment(kind, fixed, start, end, duration=1.0), 4
        rates = ([get(k) for k in range(-2, 3)] for get in (UNEQUAL_NOISE.rate, UNEQUAL_NOISE.shift))
        plan = lindblad._ChannelPlan(1.0, (angles,), (n,), *rates)
        sigma, q, c = plan.basis[0].reshape(3, n, -1)
        assert list(plan.moving) == [not _stationary(arc)]
        if _stationary(arc):
            assert kind is ArcKind.MERIDIAN
            assert np.all(sigma == sigma[0]) and not q.any() and not c.any()
        else:
            weights = _term_weights(arc, np.linspace(0.0, 1.0, 5))
            assert not np.all(weights == weights[0])

    @pytest.mark.parametrize("wedge", [1, 2, 3])
    def test_wedge_loops_take_one_step_on_their_polar_meridian(self, wedge):
        loop = wedge_loop(wedge, 1.0, 42.0)
        for loop, moving in ((loop, [False, True, True]), (reverse_loop(loop), [True, True, False])):
            counts = _step_counts(loop, None, 42.0)
            assert [n == 1 for n in counts] == [not m for m in moving]
            assert list(_loop_plan(loop, UNEQUAL_NOISE, counts).moving) == moving

    @pytest.mark.parametrize(("grid", "squarings"), [
        ([17.5, 18.0, 18.5, 19.0], [7, 7, 7, 7]),
        ([6.0, 18.0, 19.0, 42.0], [5, 7, 7, 8]),
    ])
    def test_grid_matches_per_point_calls(self, grid, squarings):
        # the stationary arc's exponentials share one squaring count and so
        # one _expm call, or 6.0 and 42.0 each go alone with a spare row
        loop, noise = wedge_loop(1, 1.0, 1.0), high_temperature_noise(0.05)
        grid = np.array(grid)
        plan = _loop_plan(loop, noise, _step_counts(loop, None, grid.max()))
        durations = np.array([[arc.duration] for arc in loop.arcs]) * grid
        rows, _, _, bounds = next(plan.blocks(durations, noise.lambda_sq))
        assert rows.shape[1] == 256 and [_squarings(b) for b in bounds] == squarings
        channel = loop_channel(loop, noise, omega_tau=grid)
        assert np.array_equal(channel.phi, per_point_phis(loop, noise, grid))

    def test_a_loop_with_no_stationary_arc_is_unchanged(self):
        # every arc of the turned loop moves, so it takes every step of its
        # count, and Phi is the sequential Magnus product at that count
        # (within 1.2e-14 on three BLAS kernels)
        loop = TURNED_LOOP
        noise, grid = high_temperature_noise(0.05), np.array([6.0, 18.251, 42.0])
        channel = loop_channel(loop, noise, omega_tau=grid)
        assert channel.steps == 3 * 144
        for omega_tau, phi in zip(grid, channel.phi):
            reference = sequential_magnus_phi(with_total_time(loop, omega_tau), noise)
            assert np.abs(phi - reference).max() <= 1e-13

    @pytest.mark.parametrize("lam", [0.005, 0.05])
    @pytest.mark.parametrize("grid", [[6.0, 18.251, 42.0], np.linspace(0.25, 60.25, 13),
                                      [10.5, 11.0, 24.5, 25.0]], ids=["spread", "even", "pairs"])
    def test_a_workspace_of_block_steps_keeps_the_grid_bitwise(self, lam, grid):
        # the turned loop's blocks are 48 steps each: two points share a
        # product, as many as a workspace of _BLOCK_STEPS steps holds
        noise, grid = high_temperature_noise(lam), np.array(grid)
        steps = default_step_count(grid.max())
        channel = loop_channel(TURNED_LOOP, noise, omega_tau=grid)
        plan = _loop_plan(TURNED_LOOP, noise, _step_counts(TURNED_LOOP, None, grid.max()))
        assert plan.work.shape[1] == _BLOCK_STEPS and plan.counts == (48, 48, 48)
        assert np.array_equal(channel.phi, per_point_phis(TURNED_LOOP, noise, grid, steps))


def with_one_norm(a, norm):
    """The stack a, each matrix scaled to the given 1-norm."""
    return a * (norm / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]


def assert_matches_power_series(a, extra_squarings=0):
    """exp of each matrix of the stack a by _expm in a fresh workspace, at
    the squaring count of the stack's largest 1-norm plus extra_squarings,
    within 1e-14 of the power series relative to its 1-norm. Each squaring
    doubles the relative rounding error, so past four squarings (1-norm
    3.2) the bound doubles with each."""
    squarings = _squarings(np.abs(a).sum(axis=-2).max()) + extra_squarings
    powers = np.empty((3, *a.shape))
    powers[0] = np.ldexp(a, -squarings)
    powers[2] = np.eye(a.shape[-1])
    got = _expm(powers, np.empty((5, *a.shape)), squarings)
    expected = power_series_expm(a)
    error = np.abs(got - expected).sum(axis=-2).max(axis=-1)
    bound = 1e-14 * 2.0 ** max(0, squarings - 4)
    assert np.all(error <= bound * np.abs(expected).sum(axis=-2).max(axis=-1))


class TestStepExponential:
    """_expm against the plain power series of degree 20 in extended
    precision, on stacks scaled to one 1-norm each, across the squaring
    boundaries, and on a plan's non-normal exponents."""

    @pytest.mark.parametrize("norm", np.geomspace(1e-4, 8.0, 9))
    def test_matches_the_power_series(self, rng, norm):
        assert_matches_power_series(with_one_norm(rng.normal(size=(5, 16, 16)), norm))

    def test_mixed_norms_share_the_largest_ones_squarings(self, rng):
        assert_matches_power_series(with_one_norm(rng.normal(size=(9, 16, 16)),
                                                  np.geomspace(1e-4, 8.0, 9)))

    @pytest.mark.parametrize("boundary", _TAYLOR_RADIUS * 2.0 ** np.arange(6))
    def test_either_side_of_a_squaring_boundary(self, rng, boundary):
        # one squaring more than the norm needs is what a loose bound costs
        a = with_one_norm(rng.normal(size=(4, 16, 16)), boundary)
        below, above = a[:2] * (1 - 1e-12), a[2:] * (1 + 1e-12)
        norms = [np.abs(stack).sum(axis=-2).max() for stack in (below, above)]
        assert _squarings(norms[1]) == _squarings(norms[0]) + 1
        for stack in (below, above):
            assert_matches_power_series(stack)
            assert_matches_power_series(stack, extra_squarings=1)

    def test_plan_exponents(self):
        loop = wedge_loop(2, 1.3, 23.7)
        noise = UNEQUAL_NOISE.with_lambda_sq(0.05)
        steps = default_step_count(loop.omega_scale * loop.total_time)
        plan, durations = plan_of(loop, noise, steps)
        for rows, coeffs, coherent, _ in plan.blocks(durations, noise.lambda_sq):
            a = (coeffs[0] @ rows).reshape(-1, 16, 16) + coherent[0].reshape(16, 16)
            # the dissipator makes them non-normal: [a, a^T] != 0
            assert np.abs(a @ a.transpose(0, 2, 1) - a.transpose(0, 2, 1) @ a).max() > 1e-5
            assert_matches_power_series(a)


def direct_exponent_norms(loop, lambda_sqs, noise, steps):
    """Per arc of the production split: the largest 1-norm in real
    coordinates of each step's Magnus exponent at each coupling in
    lambda_sqs, one row per coupling, with the exponents formed one
    superoperator at a time in the vec basis."""
    unit = noise.with_lambda_sq(1.0)
    for arc, n, h, l_unit in production_pieces(loop, steps):
        gauss = (np.arange(n)[:, None] + 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0) * h
        d = vec_dissipators(arc, gauss.ravel(), unit)
        rows = []
        for lambda_sq in lambda_sqs:
            a1, a2 = l_unit + lambda_sq * d[0::2], l_unit + lambda_sq * d[1::2]
            real = (_BASIS.conj().T @ magnus_exponents(a1, a2, h) @ _BASIS).real
            rows.append(np.abs(real).sum(axis=-2).max(axis=-1))
        yield np.array(rows)


class TestSquaringBound:
    """The plan's bound on each block's exponent norms, which sets its
    squarings before the exponents are formed."""

    @pytest.mark.parametrize("wedge", [1, 2, 3])
    @pytest.mark.parametrize("noise", TEST_NOISES)
    def test_bound_holds_and_costs_at_most_one_squaring(self, wedge, noise):
        lambda_sqs = (0.0, 1e-3, 0.01, 0.05)
        for omega_tau in (0.25, 18.251, 60.0, 240.0):
            loop = wedge_loop(wedge, 1.0, omega_tau)
            steps = default_step_count(omega_tau)
            plan, durations = plan_of(loop, noise, steps)
            norms = np.concatenate([
                arc_norms[:, first:first + _BLOCK_STEPS].max(axis=1)[:, None]
                for arc_norms in direct_exponent_norms(loop, lambda_sqs, noise, steps)
                for first in range(0, arc_norms.shape[1], _BLOCK_STEPS)
            ], axis=1)
            for lambda_sq, exact in zip(lambda_sqs, norms):
                bounds = [bound for *_, (bound,) in plan.blocks(durations, lambda_sq)]
                assert len(bounds) == len(exact)
                for bound, norm in zip(bounds, exact):
                    # to rounding: at lambda^2 = 0 the bound is the norm
                    assert bound >= norm * (1 - 1e-14)
                    assert _squarings(bound) <= _squarings(norm) + 1


# wedge:1 and wedge:3 with the flat table, wedge:2 at Omega = 1.3 and
# wedge:3 at Omega = 1.7 with uneven rates and Lamb shifts, and the
# reversed standard loop with the same uneven table
LAB_CASES = [
    (standard_not_loop(1.0, 18.251), high_temperature_noise(0.05)),
    (wedge_loop(2, 1.3, 23.7), UNEQUAL_NOISE.with_lambda_sq(0.05)),
    (reverse_loop(standard_not_loop(1.0, 18.251)), UNEQUAL_NOISE.with_lambda_sq(0.05)),
    (wedge_loop(3, 1.0, 30.0), high_temperature_noise(0.05)),
    (wedge_loop(3, 1.7, 19.0), UNEQUAL_NOISE.with_lambda_sq(0.05)),
]


class TestLabBasisOracle:
    """The channel and its mean fidelity against lab_channel_phi, which
    builds no frame: only the two endpoint frames map the channel to the
    lab basis. At 1,000 steps the oracle is within 7.1e-10 of itself at
    4,000 steps, and the channel at default steps is 7e-10 to 1.9e-9 from
    it. Flipping the sign of one Lamb shift moves Phi by 0.018 or more on
    the uneven-table cases."""

    @pytest.mark.parametrize(("loop", "noise"), LAB_CASES)
    def test_channel_matches_the_lab_basis_oracle(self, loop, noise):
        f0 = eigenframe(*loop.start_point()).matrix
        f1 = eigenframe(*loop.end_point()).matrix
        phi = np.kron(f1, f1.conj()) @ loop_channel(loop, noise).phi @ np.kron(f0.conj().T, f0.T)
        reference = lab_channel_phi(loop, noise, 1000)
        assert np.abs(phi - reference).max() <= 1e-8
        # the exact Bloch average over the octahedron's six dark inputs
        psi = OCTAHEDRON @ start_frame(loop).dark.T
        inputs = np.einsum("ni,nj->nij", psi, psi.conj()).reshape(6, 16)
        out = (inputs @ reference.T).reshape(6, 4, 4)
        target = psi @ adiabatic_gate(loop).matrix.T
        fidelity = np.einsum("ni,nij,nj->n", target.conj(), out, target).real.mean()
        assert abs(fidelity - mean_fidelity(loop, noise)) <= 1e-9
