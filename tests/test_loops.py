import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripod_holonomy import (
    ArcKind,
    ArcSegment,
    LoopSpec,
    high_temperature_noise,
    loop_channel,
    loop_propagator,
    optimal_time,
    solid_angle,
    wedge_loop,
    with_total_time,
)
from tripod_holonomy.errors import ConfigError
from tripod_holonomy.loops import ANGLE_TOL, loop_from_dict, wedge_order

from conftest import GAUGE_JUMP_LOOP_DOC
from oracles import holonomy_path_ordered, reverse_loop, standard_not_loop


class TestConstruction:
    def test_standard_equal_durations(self):
        loop = standard_not_loop(1.0, 3.0)
        assert [a.duration for a in loop.arcs] == pytest.approx([1.0, 1.0, 1.0])
        assert loop.total_time == pytest.approx(3.0)

    def test_standard_solid_angle(self):
        assert solid_angle(standard_not_loop(1.0, 3.0)) == pytest.approx(np.pi / 2)

    def test_standard_angular_speeds(self):
        tau = 7.3
        loop = standard_not_loop(1.0, tau)
        for arc in loop.arcs:
            assert abs(arc.rate) == pytest.approx((np.pi / 2) / (tau / 3))

    def test_wedge_one_equals_standard(self):
        assert wedge_loop(1, 2.0, 5.0) == standard_not_loop(2.0, 5.0)

    def test_wedge_two_duration_ratio(self):
        loop = wedge_loop(2, 1.0, 5.0)
        d = np.array([a.duration for a in loop.arcs])
        np.testing.assert_allclose(d / d[1], [2.0, 1.0, 2.0], atol=1e-12)

    def test_wedge_two_solid_angle(self):
        assert solid_angle(wedge_loop(2, 1.0, 5.0)) == pytest.approx(np.pi / 4)

    def test_invalid_order(self):
        with pytest.raises(ConfigError, match="wedge order n must be an integer >= 1"):
            wedge_loop(0, 1.0, 1.0)

    def test_invalid_duration(self):
        with pytest.raises(ConfigError, match="total time must be positive"):
            standard_not_loop(1.0, 0.0)
        with pytest.raises(ConfigError, match="arc duration must be positive"):
            ArcSegment(ArcKind.MERIDIAN, 0.0, 0.0, 1.0, -2.0)

    def test_open_path_rejected(self):
        arcs = (ArcSegment(ArcKind.MERIDIAN, 0.0, 0.0, np.pi / 2, 1.0),)
        with pytest.raises(ValueError):
            LoopSpec(omega_scale=1.0, arcs=arcs)

    def test_loop_closure_pole_insensitive_to_phi(self):
        loop = standard_not_loop(1.0, 3.0)
        th0, ph0 = loop.arcs[0].angles(0.0)
        th1, ph1 = loop.arcs[-1].angles(loop.arcs[-1].duration)
        assert (th0, ph0 * np.sin(th0)) == (th1, ph1 * np.sin(th1))


class TestSchedule:
    def test_angles_at_start(self):
        tau = 3.0
        first = standard_not_loop(1.0, tau).arcs[0]
        assert first.angles(0.0) == (0.0, 0.0)
        assert first.rate == pytest.approx((np.pi / 2) / 1.0)

    def test_angles_at_end(self):
        last = standard_not_loop(1.0, 3.0).arcs[-1]
        th, ph = last.angles(last.duration)
        assert th == pytest.approx(0.0)
        assert ph == pytest.approx(np.pi / 2)

    def test_angles_at_midpoint(self):
        # t = 1.5 of 3.0 is halfway along the middle (equator) arc
        middle = standard_not_loop(1.0, 3.0).arcs[1]
        th, ph = middle.angles(0.5 * middle.duration)
        assert th == pytest.approx(np.pi / 2)
        assert ph == pytest.approx(np.pi / 4)

    def test_array_angles_match_scalar_calls_with_exact_endpoints(self):
        for arc in wedge_loop(2, 1.0, 4.0).arcs:
            s = np.linspace(0.0, arc.duration, 7)
            thetas, phis = arc.angles(s)
            assert list(zip(thetas, phis)) == [arc.angles(x) for x in s]
            moving = thetas if arc.kind is ArcKind.MERIDIAN else phis
            assert (moving[0], moving[-1]) == (arc.start_angle, arc.end_angle)

    @given(tau=st.floats(0.5, 50.0), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_rate_times_duration_recovers_arc(self, tau, n):
        loop = wedge_loop(n, 1.0, tau)
        for arc in loop.arcs:
            assert abs(arc.rate * arc.duration - (arc.end_angle - arc.start_angle)) <= 1e-12

    def test_angles_continuous_across_boundaries(self):
        loop = wedge_loop(2, 1.0, 4.0)
        for prev, nxt in zip(loop.arcs[:-1], loop.arcs[1:]):
            before = prev.angles(prev.duration - 1e-12)
            after = nxt.angles(0.0)
            np.testing.assert_allclose(before, after, atol=1e-10)


class TestOptimalTime:
    def test_first_revival_value(self):
        assert optimal_time(1, 1, 1.0) == pytest.approx(18.251004041881252, abs=1e-12)
        # two-decimal value quoted for the first revival
        assert round(optimal_time(1, 1, 1.0), 2) == 18.25

    def test_second_revival_value(self):
        assert optimal_time(2, 1, 1.0) == pytest.approx(3 * np.pi / 2 * np.sqrt(63.0))
        assert optimal_time(2, 1, 1.0) == pytest.approx(37.40342796929737, abs=1e-12)

    def test_wedge_two_first_revival(self):
        assert optimal_time(1, 2, 1.0) == pytest.approx(5 * np.pi / 4 * np.sqrt(63.0))
        assert optimal_time(1, 2, 1.0) == pytest.approx(31.169523307747806, abs=1e-12)

    def test_scales_inversely_with_omega(self):
        assert optimal_time(1, 1, 4.0) == pytest.approx(optimal_time(1, 1, 1.0) / 4.0)

    def test_invalid_indices(self):
        with pytest.raises(ConfigError, match="revival index k must be an integer >= 1"):
            optimal_time(0, 1, 1.0)
        with pytest.raises(ConfigError, match="wedge order n must be an integer >= 1"):
            optimal_time(1, 0, 1.0)


class TestTransforms:
    def test_with_total_time_rescales(self):
        loop = wedge_loop(2, 1.0, 5.0)
        rescaled = with_total_time(loop, 10.0)
        assert rescaled.total_time == pytest.approx(10.0)
        for a, b in zip(loop.arcs, rescaled.arcs):
            assert b.duration == pytest.approx(2.0 * a.duration)
            assert (a.start_angle, a.end_angle) == (b.start_angle, b.end_angle)

    def test_reverse_loop_is_valid_and_mirrored(self):
        loop = standard_not_loop(1.0, 3.0)
        rev = reverse_loop(loop)
        assert rev.total_time == pytest.approx(loop.total_time)
        assert rev.arcs[0].fixed_angle == loop.arcs[-1].fixed_angle
        assert solid_angle(rev) == pytest.approx(-np.pi / 2)

    def test_wedge_order(self):
        assert wedge_order(standard_not_loop(1.0, 2.0)) == 1
        assert wedge_order(wedge_loop(3, 1.0, 2.0)) == 3

    def test_southern_loop_unsupported(self):
        arcs = (
            ArcSegment(ArcKind.MERIDIAN, 0.0, 0.0, np.pi, 1.0),
            ArcSegment(ArcKind.MERIDIAN, 0.0, np.pi, 0.0, 1.0),
        )
        with pytest.raises(ConfigError, match="northern hemisphere"):
            LoopSpec(omega_scale=1.0, arcs=arcs)

    def test_interior_gauge_jump_unsupported(self):
        # both engines carry the frame across each interior joint, so a
        # jump there would give each of them a different wrong gate: such a
        # loop cannot be built, from a file or from arcs
        with pytest.raises(ConfigError, match="gauge frame jumps by 1.57 "):
            loop_from_dict(GAUGE_JUMP_LOOP_DOC)
        with pytest.raises(ConfigError, match="gauge frame jumps by 1.57 "):
            LoopSpec(omega_scale=1.0, arcs=tuple(
                ArcSegment(ArcKind(a["kind"]), a["fixed_angle"], a["start_angle"],
                           a["end_angle"], a["duration"])
                for a in GAUGE_JUMP_LOOP_DOC["arcs"]
            ))


@st.composite
def wedge_loops(draw):
    """A wedge loop of order 1-3, optionally reversed and rescaled."""
    n, omega, tau = draw(st.integers(1, 3)), draw(st.floats(0.5, 2.0)), draw(st.floats(1.0, 40.0))
    loop = wedge_loop(n, omega, tau)
    if draw(st.booleans()):
        loop = reverse_loop(loop)
    if draw(st.booleans()):
        loop = with_total_time(loop, draw(st.floats(1.0, 40.0)))
    return loop


class TestOneValidator:
    """LoopSpec's constructor is the only loop check: what it builds, every
    engine takes, and a loop with a broken joint is never built."""

    @given(loop=wedge_loops())
    @settings(max_examples=20, deadline=None)
    def test_wedge_loops_reach_every_engine(self, loop):
        assert loop_propagator(loop).matrix.shape == (4, 4)
        assert loop_channel(loop, high_temperature_noise(1e-3), steps=200).phi.shape == (16, 16)
        assert holonomy_path_ordered(loop, steps=60).shape == (2, 2)

    @given(loop=wedge_loops(), joint=st.integers(0, 1), side=st.booleans(),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_moved_joint_is_rejected(self, loop, joint, side, sign):
        arcs = list(loop.arcs)
        i, key = (joint, "end_angle") if side else (joint + 1, "start_angle")
        moved = getattr(arcs[i], key) + sign * 10 * ANGLE_TOL
        arcs[i] = dataclasses.replace(arcs[i], **{key: moved})
        with pytest.raises((ValueError, ConfigError)):
            LoopSpec(omega_scale=loop.omega_scale, arcs=tuple(arcs))

    @given(loop=wedge_loops())
    @settings(max_examples=40, deadline=None)
    def test_angles_rounded_to_ten_digits_construct(self, loop):
        arcs = tuple(
            dataclasses.replace(a, **{key: round(getattr(a, key), 10)
                                      for key in ("fixed_angle", "start_angle", "end_angle")})
            for a in loop.arcs
        )
        LoopSpec(omega_scale=loop.omega_scale, arcs=arcs)


HALF_PI = "1.5707963267948966"
STANDARD_LOOP_JSON = f"""{{"omega_scale": 1.0, "arcs": [
  {{"kind": "meridian", "fixed_angle": 0.0, "start_angle": 0.0,
    "end_angle": {HALF_PI}, "duration": 1.0}},
  {{"kind": "equator", "fixed_angle": {HALF_PI}, "start_angle": 0.0,
    "end_angle": {HALF_PI}, "duration": 1.0}},
  {{"kind": "meridian", "fixed_angle": {HALF_PI}, "start_angle": {HALF_PI},
    "end_angle": 0.0, "duration": 1.0}}]}}"""


class TestJsonRoundTrip:
    def test_round_trip(self):
        loop = wedge_loop(2, 1.5, 4.0)
        assert loop_from_dict(json.loads(json.dumps(dataclasses.asdict(loop)))) == loop

    def test_reads_literal(self):
        assert loop_from_dict(json.loads(STANDARD_LOOP_JSON)) == standard_not_loop(1.0, 3.0)

    def test_inconsistent_total_time_rejected(self):
        doc = json.loads(STANDARD_LOOP_JSON)
        doc["total_time"] = 99.0
        with pytest.raises(ValueError):
            loop_from_dict(doc)
