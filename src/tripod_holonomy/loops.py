"""Control loops on the parameter sphere.

The supported family: start at the pole, descend a meridian to the
equator, slide along the equator by the wedge opening, climb back up a
meridian. All arcs are covered at the same constant angular speed, which
for the pi/2 wedge (the NOT gate) means equal arc times.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDuration, InvalidOrder, UnsupportedLoop
from .tripod import SphericalPoint, _frame_columns

# Absolute tolerance on theta and on phi*sin(theta) when comparing path
# points, so loop files with angles rounded to 10 digits still close.
ANGLE_TOL = 1e-9


class ArcKind(str, Enum):
    MERIDIAN = "meridian"  # theta varies at fixed phi
    EQUATOR = "equator"    # phi varies at theta = pi/2


@dataclass(frozen=True)
class ArcSegment:
    """One geodesic arc, traversed at constant angular speed."""

    kind: ArcKind
    fixed_angle: float
    start_angle: float
    end_angle: float
    duration: float

    def __post_init__(self) -> None:
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise InvalidDuration(f"arc duration must be positive, got {self.duration}")
        for a in (self.fixed_angle, self.start_angle, self.end_angle):
            if not np.isfinite(a):
                raise ValueError("arc angles must be finite")

    @property
    def rate(self) -> float:
        """Signed angular speed of the varying angle."""
        return (self.end_angle - self.start_angle) / self.duration

    def angles(self, s: float | np.ndarray) -> tuple:
        """(theta, phi) at local time s in [0, duration]; endpoints exact.

        s may be a scalar or an array of local times; each angle then has
        the shape of s.
        """
        u = s / self.duration  # exactly 0 and 1 at the endpoints
        moving = self.start_angle * (1.0 - u) + self.end_angle * u
        fixed = 0.0 * u  # zero with the shape of s
        if self.kind is ArcKind.MERIDIAN:
            return moving, self.fixed_angle + fixed
        return np.pi / 2.0 + fixed, moving


@dataclass(frozen=True)
class LoopSpec:
    """Closed control path: ordered arcs plus the constant energy scale."""

    omega_scale: float
    arcs: tuple[ArcSegment, ...]

    def __post_init__(self) -> None:
        if not (self.omega_scale > 0 and np.isfinite(self.omega_scale)):
            raise ValueError("omega_scale must be positive")
        if not self.arcs:
            raise InvalidDuration("loop needs at least one arc")
        object.__setattr__(self, "arcs", tuple(self.arcs))
        prev = None
        for arc in self.arcs:
            start = arc.angles(0.0)
            if prev is not None and not _points_coincide(prev, start):
                raise ValueError("arcs are not contiguous")
            prev = arc.angles(arc.duration)
        if not _points_coincide(prev, self.arcs[0].angles(0.0)):
            raise ValueError("loop is not closed")

    @property
    def total_time(self) -> float:
        return float(sum(arc.duration for arc in self.arcs))

    def start_point(self) -> SphericalPoint:
        th, ph = self.arcs[0].angles(0.0)
        return SphericalPoint(theta=th, phi=ph)

    def end_point(self) -> SphericalPoint:
        last = self.arcs[-1]
        th, ph = last.angles(last.duration)
        return SphericalPoint(theta=th, phi=ph)


def _points_coincide(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Sphere-point equality to ANGLE_TOL, insensitive to phi at the poles."""
    (t1, p1), (t2, p2) = a, b
    return abs(t1 - t2) <= ANGLE_TOL and abs(p1 * np.sin(t1) - p2 * np.sin(t2)) <= ANGLE_TOL


def standard_not_loop(omega: float, tau: float) -> LoopSpec:
    """The pi/2-wedge NOT loop: three arcs of equal duration tau/3."""
    return wedge_loop(1, omega, tau)


def wedge_loop(n: int, omega: float, tau: float) -> LoopSpec:
    """Wedge loop enclosing solid angle pi/(2n), constant angular speed.

    Arc lengths are (pi/2, pi/(2n), pi/2), so durations split
    proportionally; n = 1 reduces to the standard NOT loop.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidOrder(f"wedge order n must be an integer >= 1, got {n!r}")
    if not (tau > 0 and np.isfinite(tau)):
        raise InvalidDuration(f"total time must be positive, got {tau}")
    half_pi = np.pi / 2.0
    opening = np.pi / (2.0 * n)
    total_angle = 2.0 * half_pi + opening
    t_meridian = tau * half_pi / total_angle
    t_equator = tau * opening / total_angle
    arcs = (
        ArcSegment(ArcKind.MERIDIAN, fixed_angle=0.0, start_angle=0.0,
                   end_angle=half_pi, duration=t_meridian),
        ArcSegment(ArcKind.EQUATOR, fixed_angle=half_pi, start_angle=0.0,
                   end_angle=opening, duration=t_equator),
        ArcSegment(ArcKind.MERIDIAN, fixed_angle=opening, start_angle=half_pi,
                   end_angle=0.0, duration=t_meridian),
    )
    return LoopSpec(omega_scale=omega, arcs=arcs)


def with_total_time(loop: LoopSpec, tau: float) -> LoopSpec:
    """Same path, rescaled to a new total time (angular speeds scale)."""
    if not (tau > 0 and np.isfinite(tau)):
        raise InvalidDuration(f"total time must be positive, got {tau}")
    scale = tau / loop.total_time
    arcs = tuple(
        ArcSegment(a.kind, a.fixed_angle, a.start_angle, a.end_angle, a.duration * scale)
        for a in loop.arcs
    )
    return LoopSpec(omega_scale=loop.omega_scale, arcs=arcs)


def reverse_loop(loop: LoopSpec) -> LoopSpec:
    """Orientation-reversed loop (arcs in reverse order and direction)."""
    arcs = tuple(
        ArcSegment(a.kind, a.fixed_angle, a.end_angle, a.start_angle, a.duration)
        for a in reversed(loop.arcs)
    )
    return LoopSpec(omega_scale=loop.omega_scale, arcs=arcs)


def check_wedge_family(loop: LoopSpec) -> None:
    """Require a pole-anchored, northern-hemisphere loop whose gauge frame
    can only jump at the start/end closure: at every interior joint the
    frames of the two arcs agree entrywise to 2 ANGLE_TOL. A frame entry
    changes by at most |d theta| + |d phi|, so that is the bound when both
    angles agree to ANGLE_TOL."""
    th0, _ = loop.arcs[0].angles(0.0)
    if th0 != 0.0:
        raise UnsupportedLoop("loop must start at the pole (theta = 0)")
    for arc in loop.arcs:
        if arc.kind is ArcKind.MERIDIAN and (
            min(arc.start_angle, arc.end_angle) < 0.0
            or max(arc.start_angle, arc.end_angle) > np.pi / 2.0 + ANGLE_TOL
        ):
            raise UnsupportedLoop("meridian arc leaves the northern hemisphere")
    # (theta, phi) at each interior joint: the end of one arc, the start of the next
    joints = [(a.angles(a.duration), b.angles(0.0)) for a, b in zip(loop.arcs, loop.arcs[1:])]
    frames = _frame_columns(*np.moveaxis(np.array(joints, dtype=float).reshape(-1, 2, 2), -1, 0))
    jump = np.abs(frames[:, 0] - frames[:, 1]).max(initial=0.0)
    if jump > 2.0 * ANGLE_TOL:
        raise UnsupportedLoop(f"gauge frame jumps by {jump:.3g} at an interior joint")


def solid_angle(loop: LoopSpec) -> float:
    """Signed solid angle of a wedge-family loop.

    Meridian arcs never move phi and the equator sits at theta = pi/2, so
    the enclosed area reduces exactly to the summed equatorial openings."""
    check_wedge_family(loop)
    return float(
        sum(a.end_angle - a.start_angle for a in loop.arcs if a.kind is ArcKind.EQUATOR)
    )


def wedge_order(loop: LoopSpec) -> int:
    """Wedge order n such that the loop's opening is pi/(2n)."""
    opening = abs(solid_angle(loop))
    if opening == 0.0:
        raise UnsupportedLoop("degenerate loop has no wedge order")
    n = int(round(np.pi / (2.0 * opening)))
    if n < 1 or abs(np.pi / (2.0 * n) - opening) > 1e-9:
        raise UnsupportedLoop(f"equatorial opening {opening} is not pi/(2n)")
    return n


def optimal_time(k: int, n: int, omega: float) -> float:
    """Closed-form k-th fidelity-revival time of the order-n wedge loop."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidOrder(f"revival index k must be an integer >= 1, got {k!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidOrder(f"wedge order n must be an integer >= 1, got {n!r}")
    return (2 * n + 1) * np.pi / (2 * n * omega) * np.sqrt(16.0 * k * k * n * n - 1.0)


def loop_from_dict(doc: dict) -> LoopSpec:
    """The loop of a loop file's document; it must be in the wedge family."""
    arcs = tuple(
        ArcSegment(
            kind=ArcKind(a["kind"]),
            fixed_angle=float(a["fixed_angle"]),
            start_angle=float(a["start_angle"]),
            end_angle=float(a["end_angle"]),
            duration=float(a["duration"]),
        )
        for a in doc["arcs"]
    )
    loop = LoopSpec(omega_scale=float(doc["omega_scale"]), arcs=arcs)
    declared = doc.get("total_time")
    if declared is not None and abs(loop.total_time - float(declared)) > 1e-9 * loop.total_time:
        raise ValueError("declared total_time inconsistent with arc durations")
    check_wedge_family(loop)
    return loop
