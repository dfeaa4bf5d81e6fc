import sys
import warnings

import numpy as np
import pytest

from tripod_holonomy import (
    ArcKind,
    ArcSegment,
    LoopSpec,
    adiabatic_gate,
    adiabatic_holonomy,
    loop_propagator,
    mean_fidelity,
    optimal_time,
    schrodinger_oracle,
    wedge_loop,
    with_total_time,
)
from tripod_holonomy import linalg
from tripod_holonomy.errors import InvalidDuration, StepCountTooSmall, UnsupportedLoop
from tripod_holonomy.loops import loop_from_dict
from tripod_holonomy.lindblad import high_temperature_noise
from tripod_holonomy.propagators import (
    _ARC_TABLES, _arc_generator, _arc_weights, dark_block, loop_times, start_frame,
)
from tripod_holonomy.tripod import (
    FRAME_ENERGY, SphericalPoint, _frame_columns, eigenframe, hamiltonian,
)

from conftest import UNEVEN_LOOP_DOC, _expm_i, per_point_propagator
from oracles import arc_propagator, holonomy_path_ordered, reverse_loop, standard_not_loop

NOT_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

GRID_LOOPS = {
    "wedge1": wedge_loop(1, 1.0, 1.0),
    "wedge2": wedge_loop(2, 1.0, 1.0),
    "wedge3": wedge_loop(3, 1.0, 1.0),
    "omega1.7": wedge_loop(1, 1.7, 1.0),
    "loop-file": loop_from_dict(UNEVEN_LOOP_DOC),
}


CLOSED_FORM_LOOPS = {
    **{f"wedge{n}-omega{omega}": wedge_loop(n, omega, 1.0)
       for n in (1, 2, 3) for omega in (1.0, 1.3)},
    "wedge2-reversed": reverse_loop(wedge_loop(2, 1.3, 1.0)),
}


def pinned_arc_loop(theta=0.3, phi=0.2, duration=2.0, climb=0.1):
    """Down a meridian to (theta, phi), a zero-speed arc there (arc 1: the
    control point never moves), and back up to the pole."""
    arcs = (
        ArcSegment(ArcKind.MERIDIAN, phi, 0.0, theta, climb),
        ArcSegment(ArcKind.MERIDIAN, phi, theta, theta, duration),
        ArcSegment(ArcKind.MERIDIAN, phi, theta, 0.0, climb),
    )
    return LoopSpec(omega_scale=1.0, arcs=arcs)


def out_and_back_loop(tau=4.0, phi=0.0):
    down = ArcSegment(ArcKind.MERIDIAN, phi, 0.0, np.pi / 2, tau / 2)
    up = ArcSegment(ArcKind.MERIDIAN, phi, np.pi / 2, 0.0, tau / 2)
    return LoopSpec(omega_scale=1.0, arcs=(down, up))


def lab_arc_propagator(loop, arc_index):
    """arc_propagator mapped back to the lab basis with the frames at the
    arc's ends."""
    arc = loop.arcs[arc_index]
    f_start = _frame_columns(*arc.angles(0.0))
    f_end = _frame_columns(*arc.angles(arc.duration))
    return f_end @ arc_propagator(loop, arc_index) @ f_start.T


class TestTransportGenerator:
    def test_zero_speed_arc_gives_zero(self):
        gen = _arc_generator(pinned_arc_loop().arcs[1])
        np.testing.assert_allclose(gen, np.zeros((4, 4)), atol=1e-15)

    def test_hermitian_on_random_loops(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            tau = float(rng.uniform(0.5, 40.0))
            loop = wedge_loop(n, 1.0, tau)
            for i in range(3):
                m = _arc_generator(loop.arcs[i])
                assert np.linalg.norm(m - m.conj().T) <= 1e-11

    def test_piecewise_constant_along_arcs(self):
        # -i F(s)^T dF/ds by central differences of the closed-form frame at
        # interior points of every arc equals the arc's closed-form generator
        step = 1e-5
        loops = [wedge_loop(n, 1.0, 7.0) for n in (1, 2, 3)]
        for loop in loops + [reverse_loop(loop) for loop in loops]:
            for arc in loop.arcs:
                gen = _arc_generator(arc)
                for frac in (0.1, 0.25, 0.5, 0.9):
                    s = frac * arc.duration
                    f = _frame_columns(*arc.angles(s))
                    rate = (_frame_columns(*arc.angles(s + step))
                            - _frame_columns(*arc.angles(s - step))) / (2 * step)
                    assert np.abs(-1j * f.T @ rate - gen).max() <= 1e-9


class TestArcPropagator:
    def test_short_duration_is_near_identity(self):
        loop = standard_not_loop(1.0, 3e-8)
        u = lab_arc_propagator(loop, 0)
        assert np.linalg.norm(u - np.eye(4)) <= 1e-6

    def test_static_arc_is_plain_exponential(self):
        loop = pinned_arc_loop(theta=0.3, phi=0.2, duration=2.0)
        u = lab_arc_propagator(loop, 1)
        h = hamiltonian(0.3, 0.2, 1.0)
        w, v = np.linalg.eigh(h)
        expected = (v * np.exp(-2.0j * w)) @ v.conj().T
        np.testing.assert_allclose(u, expected, atol=1e-13)

    def test_meridian_arc_matches_midpoint_integration(self):
        loop = standard_not_loop(1.0, optimal_time(1, 1, 1.0))
        arc = loop.arcs[0]
        exact = lab_arc_propagator(loop, 0)
        steps = 20_000
        dt = arc.duration / steps
        thetas = (np.arange(steps) + 0.5) * dt * arc.rate
        hs = np.zeros((steps, 4, 4), dtype=complex)
        hs[:, 3, 1] = hs[:, 1, 3] = np.sin(thetas)  # phi = 0: the |1> coupling
        hs[:, 3, 2] = hs[:, 2, 3] = np.cos(thetas)
        w, v = np.linalg.eigh(hs)
        step_us = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * dt * w), v.conj())
        u = np.eye(4, dtype=complex)
        for m in step_us:
            u = m @ u
        assert np.linalg.norm(exact - u) <= 1e-6


def eigh_arc_propagator(loop, arc_index, omega_tau):
    """exp(-i (dt Omega E + duration G)) of one arc at each Omega*tau of a
    grid, one eigendecomposition per point."""
    arc = loop.arcs[arc_index]
    energies = loop.omega_scale * np.diag(FRAME_ENERGY)
    gen = arc.duration * _arc_generator(arc)
    scale = arc.duration / (loop.omega_scale * loop.total_time)
    return np.stack([_expm_i(ot * scale * energies + gen, -1.0) for ot in omega_tau])


class TestClosedFormArcPropagator:
    @pytest.mark.parametrize("grid", [np.geomspace(1e-6, 240.0, 121), np.array([18.25])],
                             ids=["1e-6-to-240", "one-point"])
    @pytest.mark.parametrize("name", list(CLOSED_FORM_LOOPS))
    def test_matches_the_eigh_exponential(self, name, grid):
        loop = CLOSED_FORM_LOOPS[name]
        for i in range(len(loop.arcs)):
            closed = arc_propagator(loop, i, grid)
            assert np.abs(closed - eigh_arc_propagator(loop, i, grid)).max() <= 1e-13

    def test_noiseless_curve_runs_no_eigendecomposition(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        for module in [m for k, m in sys.modules.items() if k.startswith("tripod_holonomy")]:
            if hasattr(module, "exp_i_hermitian"):
                monkeypatch.setattr(module, "exp_i_hermitian",
                                    counted("exp_i_hermitian", module.exp_i_hermitian))
        grid = np.linspace(0.25, 60.25, 241)
        f = mean_fidelity(wedge_loop(1, 1.0, 1.0), high_temperature_noise(0.0), omega_tau=grid)
        assert f.shape == (241,)
        assert calls == []
        linalg.exp_i_hermitian(np.eye(2), 1.0)  # the counters see a call
        assert calls == ["exp_i_hermitian", "eigh"]


class TestLoopPropagator:
    def test_not_gate_at_first_revival(self):
        loop = standard_not_loop(1.0, optimal_time(1, 1, 1.0))
        u = loop_propagator(loop)
        np.testing.assert_allclose(dark_block(u.matrix, loop), NOT_BLOCK, atol=1e-12)

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
    def test_revival_fidelity_is_one(self, k, n):
        loop = wedge_loop(n, 1.0, optimal_time(k, n, 1.0))
        f = mean_fidelity(loop, high_temperature_noise(0.0))
        assert abs(f - 1.0) <= 1e-6

    def test_adiabatic_limit_dark_block(self):
        loop = standard_not_loop(1.0, 1000.37)
        u = loop_propagator(loop).matrix
        assert np.linalg.norm(dark_block(u, loop) - NOT_BLOCK) <= 1e-2

    def test_far_from_revival_not_a_not_gate(self):
        loop = standard_not_loop(1.0, 5.0)
        f = mean_fidelity(loop, high_temperature_noise(0.0))
        assert f < 0.9

    def test_unitarity_random_taus(self, rng):
        for _ in range(20):
            loop = wedge_loop(int(rng.integers(1, 4)), 1.0, float(rng.uniform(0.5, 60.0)))
            u = loop_propagator(loop).matrix
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10

    def test_orientation_symmetry(self):
        tau = 13.4
        fwd = standard_not_loop(1.0, tau)
        rev = reverse_loop(fwd)
        f_fwd = mean_fidelity(fwd, high_temperature_noise(0.0))
        f_rev = mean_fidelity(rev, high_temperature_noise(0.0))
        assert abs(f_fwd - f_rev) <= 1e-9


class TestStackedPropagator:
    @pytest.mark.parametrize("grid", [np.linspace(0.25, 60.25, 61), np.array([18.25])],
                             ids=["61-points", "one-point"])
    @pytest.mark.parametrize("name", list(GRID_LOOPS))
    def test_matches_per_point_path(self, name, grid):
        loop = GRID_LOOPS[name]
        stack = loop_propagator(loop, grid).matrix
        assert stack.shape == (len(grid), 4, 4)
        for ot, u in zip(grid, stack):
            assert np.abs(u - per_point_propagator(loop, ot)).max() <= 1e-13

    def test_no_grid_is_the_loops_own_propagator(self):
        loop = wedge_loop(2, 1.0, 17.3)
        grid_one = loop_propagator(loop, [17.3]).matrix[0]
        assert np.abs(loop_propagator(loop).matrix - grid_one).max() <= 1e-14

    def test_arc_stack_matches_the_rescaled_arc(self):
        loop = wedge_loop(3, 1.0, 1.0)
        grid = np.array([2.0, 9.5, 40.0])
        stack = arc_propagator(loop, 1, grid)
        for ot, u in zip(grid, stack):
            ref = arc_propagator(with_total_time(loop, ot), 1)
            assert np.abs(u - ref).max() <= 1e-13

    @pytest.mark.parametrize("grid", [[0.0, 1.0], [1.0, np.nan], [[1.0, 2.0]]],
                             ids=["zero-time", "nan", "two-dimensional"])
    def test_rejects_bad_grids(self, grid):
        with pytest.raises(InvalidDuration):
            loop_propagator(wedge_loop(1, 1.0, 1.0), grid)

    @pytest.mark.parametrize("omega", [1.0, 1.3, 1.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_matches_one_point_grids_bitwise(self, n, omega):
        # every product is one (1, k) @ (k, m) kernel per point, so a point
        # rounds the same alone as inside a grid
        loop, grid = wedge_loop(n, omega, 1.0), np.array([0.25, 6.0, 17.5, 18.25, 42.0, 60.25])
        stack = loop_propagator(loop, grid).matrix
        single = [loop_propagator(loop, [ot]).matrix for ot in grid]
        assert np.array_equal(stack, np.concatenate(single))


def embedding(m):
    """Real embedding [[Re, -Im], [Im, Re]] of a complex matrix."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


class TestUnitaryByConstruction:
    """No propagator is checked at run time; the closed form is unitary part
    by part. The tables embed -iH = a (-iE) + span (-iG1), Hermitian H with
    H^3 = w^2 H, w^2 = a^2 + span^2, and its square; with that,
    U = I + even H^2 - i odd H has U^dag U = I + c H^2 / w^2, where
    c = 2 (p1 + p3) + (p1 + p3)^2 + p4^2 + p5^2 in the weights p0..p5 of
    the rows I, E^2, E G1 + G1 E, G1^2, -iE, -iG1, and the weights make c
    vanish."""

    @pytest.mark.parametrize("kind", list(ArcKind))
    def test_tables_embed_a_generator_with_the_cubic_identity(self, kind):
        first, full = _ARC_TABLES[kind]
        t = full.reshape(6, 8, 8)
        g1 = _arc_generator(ArcSegment(kind, 0.0, 0.0, 1.0, 1.0))
        assert np.array_equal(first.reshape(6, 8, 4), t[..., :4])
        assert np.array_equal(t[0], np.eye(8))
        assert np.array_equal(t[4], embedding(-1j * np.diag(FRAME_ENERGY)))
        assert np.array_equal(t[5], embedding(-1j * g1))
        for a in np.geomspace(1e-3, 1e6, 37):
            for span in (-np.pi / 2, -np.pi / 6, 0.3, np.pi / 2, 2.0):
                k, w2 = a * t[4] + span * t[5], a * a + span * span
                # -iH is anti-Hermitian, so its embedding is antisymmetric
                assert np.array_equal(k, -k.T)
                square = a * a * t[1] + a * span * t[2] + span * span * t[3]
                assert np.abs(square + k @ k).max() <= 1e-15 * w2
                assert np.abs(k @ k @ k + w2 * k).max() <= 1e-15 * w2**1.5

    @pytest.mark.parametrize("omega", [1.0, 1.3, 1.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_and_propagators_are_unitary_up_to_the_overflow(self, n, omega):
        loop, grid = wedge_loop(n, omega, 1.0), np.geomspace(0.01, 1e150, 4001)
        p0, p1, _, p3, p4, p5 = np.moveaxis(
            _arc_weights(loop, loop_times(loop, grid) / loop.total_time), -1, 0)
        even_w2 = p1 + p3
        assert np.all(p0 == 1.0)
        assert np.abs(2.0 * even_w2 + even_w2 * even_w2 + p4 * p4 + p5 * p5).max() <= 1e-14
        # 1e-13 leaves room for other BLAS kernels' rounding (7.8e-15 seen)
        u = loop_propagator(loop, grid).matrix
        defect = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(4), axis=(-2, -1))
        assert defect.max() <= 1e-13

    def test_an_overflowed_loop_time_fails_the_fidelity_check(self):
        # past Omega*tau ~ 1e154 a^2 overflows and the propagator is NaN;
        # mean_fidelity's finite check rejects it, and numpy must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepCountTooSmall, match="nan is not finite"):
                mean_fidelity(wedge_loop(1, 1.0, 1.0), high_temperature_noise(0.0),
                              omega_tau=[18.25, 1e300])


class TestDarkBlock:
    @staticmethod
    def random_unitaries(rng, n):
        z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        return np.linalg.qr(z)[0]

    # a wedge starts on the phi = 0 meridian, where f0 is real and
    # symmetric, so a transposed kron shows only on loops that start on
    # another meridian: phi = pi/2 (reversed) and phi = 0.2 (pinned arc)
    @pytest.mark.parametrize("loop", [wedge_loop(3, 1.3, 7.0),
                                      reverse_loop(standard_not_loop(1.0, 18.25)),
                                      pinned_arc_loop()],
                             ids=["wedge3", "reversed", "pinned-arc"])
    def test_matches_the_explicit_frame_change(self, loop, rng):
        # (n, 4, 4) stacks and a lone matrix; a transposed or misordered
        # kron picks other entries of f0^dag U f0 and misses by O(1)
        f0 = start_frame(loop).matrix
        for u in (self.random_unitaries(rng, 7), self.random_unitaries(rng, 1)[0]):
            explicit = (f0.conj().T @ u @ f0)[..., :2, :2]
            block = dark_block(u, loop)
            assert block.shape == explicit.shape
            assert np.abs(block - explicit).max() <= 1e-15


class TestHolonomy:
    def test_standard_loop_is_not_gate(self):
        hol = adiabatic_holonomy(standard_not_loop(1.0, 3.0))
        np.testing.assert_allclose(hol, NOT_BLOCK, atol=1e-14)

    def test_degenerate_loop_is_identity(self):
        hol = adiabatic_holonomy(out_and_back_loop())
        np.testing.assert_allclose(hol, np.eye(2), atol=1e-14)

    def test_wedge_two_is_eighth_turn(self):
        hol = adiabatic_holonomy(wedge_loop(2, 1.0, 3.0))
        c = np.cos(np.pi / 4)
        np.testing.assert_allclose(hol, [[c, c], [-c, c]], atol=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: standard_not_loop(1.0, 3.0),
        lambda: wedge_loop(2, 1.0, 3.0),
        lambda: reverse_loop(standard_not_loop(1.0, 3.0)),
        out_and_back_loop,
    ])
    def test_path_ordered_agrees_with_closed_form(self, make):
        loop = make()
        numeric = holonomy_path_ordered(loop, steps=2000)
        assert np.linalg.norm(numeric - adiabatic_holonomy(loop)) <= 1e-6

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frame_closure_is_the_holonomy(self, n, omega, reverse):
        # the closure f0^dag f_end between the start and end pole frames is
        # the target on the dark block and the identity on the bright one,
        # so mean_fidelity's v = target^dag closure[:2] is exactly [I | 0]
        loop = wedge_loop(n, omega, 3.0)
        loop = reverse_loop(loop) if reverse else loop
        closure = start_frame(loop).matrix.conj().T @ eigenframe(loop.end_point()).matrix
        expected = np.eye(4, dtype=complex)
        expected[:2, :2] = adiabatic_holonomy(loop)
        np.testing.assert_allclose(closure, expected, rtol=0, atol=1e-15)

    def test_southern_hemisphere_unsupported(self):
        arcs = (
            ArcSegment(ArcKind.MERIDIAN, 0.0, 0.0, np.pi, 1.0),
            ArcSegment(ArcKind.MERIDIAN, 0.0, np.pi, 0.0, 1.0),
        )
        with pytest.raises(UnsupportedLoop, match="northern hemisphere"):
            LoopSpec(omega_scale=1.0, arcs=arcs)

    def test_bright_phases_present_in_adiabatic_gate(self):
        loop = standard_not_loop(1.0, 9.0)
        u = adiabatic_gate(loop).matrix
        f = eigenframe(SphericalPoint(0.0, 0.0)).matrix
        block = f.conj().T @ u @ f
        assert block[2, 2] == pytest.approx(np.exp(-9.0j), abs=1e-12)
        assert block[3, 3] == pytest.approx(np.exp(+9.0j), abs=1e-12)


class TestSchrodingerOracle:
    def test_static_hamiltonian_exact_for_any_steps(self):
        # 7 or 13 steps give each short meridian one midpoint step, at
        # theta / 2, and the pinned arc the rest, which must add up to one
        # exponential
        loop = pinned_arc_loop(theta=0.9, phi=1.2, duration=3.0)
        climb = _expm_i(hamiltonian(0.45, 1.2, 1.0), -0.1)
        expected = climb @ _expm_i(hamiltonian(0.9, 1.2, 1.0), -3.0) @ climb
        for steps in (7, 13):
            u = schrodinger_oracle(loop, steps=steps).matrix
            np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_matches_exact_engine(self):
        loop = standard_not_loop(1.0, 18.251004041881252)
        dist = np.linalg.norm(
            loop_propagator(loop).matrix - schrodinger_oracle(loop, 100_000).matrix
        )
        assert dist <= 1e-6

    def test_second_order_convergence(self):
        loop = wedge_loop(2, 1.0, 17.3)
        exact = loop_propagator(loop).matrix
        err = [
            np.linalg.norm(exact - schrodinger_oracle(loop, s).matrix)
            for s in (2000, 4000)
        ]
        assert 3.0 <= err[0] / err[1] <= 5.0
