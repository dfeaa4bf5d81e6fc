"""Control loops on the parameter sphere.

The supported family: start at the pole, descend a meridian to the
equator, slide along the equator by the wedge opening, climb back up a
meridian. All arcs are covered at the same constant angular speed, which
for the pi/2 wedge (the NOT gate) means equal arc times.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDuration, InvalidOrder, UnsupportedLoop

# Absolute tolerance on theta and on phi mod 2 pi at each joint, so loop
# files with angles rounded to 10 digits still close.
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
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise InvalidDuration(f"arc duration must be positive, got {self.duration}")
        for a in (self.fixed_angle, self.start_angle, self.end_angle):
            if not math.isfinite(a):
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
        """Admit only the wedge family that both engines integrate: start
        at the pole, meridians in the northern hemisphere, back at the
        pole at the end. The gauge frame depends only on (theta, phi mod
        2 pi), and the engines carry it across every interior joint, so
        both angles must agree there; the only frame jump is the closure."""
        if not (self.omega_scale > 0 and np.isfinite(self.omega_scale)):
            raise ValueError("omega_scale must be positive")
        if not self.arcs:
            raise InvalidDuration("loop needs at least one arc")
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if self.start_point()[0] != 0.0:
            raise UnsupportedLoop("loop must start at the pole (theta = 0)")
        for arc in self.arcs:
            if arc.kind is ArcKind.MERIDIAN and (
                min(arc.start_angle, arc.end_angle) < 0.0
                or max(arc.start_angle, arc.end_angle) > np.pi / 2.0 + ANGLE_TOL
            ):
                raise UnsupportedLoop("meridian arc leaves the northern hemisphere")
        for a, b in zip(self.arcs, self.arcs[1:]):
            (th1, ph1), (th2, ph2) = a.angles(a.duration), b.angles(0.0)
            dphi = abs(math.remainder(ph2 - ph1, 2.0 * math.pi))
            # apart on the sphere, or one point seen from two gauges
            if abs(th2 - th1) > ANGLE_TOL or dphi * math.sin(th1) > ANGLE_TOL:
                raise ValueError("arcs are not contiguous")
            if dphi > ANGLE_TOL:
                raise UnsupportedLoop(f"gauge frame jumps by {dphi:.3g} rad of phi at a joint")
        if self.end_point()[0] > ANGLE_TOL:
            raise ValueError("loop is not closed")

    @property
    def total_time(self) -> float:
        return float(sum(arc.duration for arc in self.arcs))

    def start_point(self) -> tuple:
        return self.arcs[0].angles(0.0)

    def end_point(self) -> tuple:
        last = self.arcs[-1]
        return last.angles(last.duration)


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


def solid_angle(loop: LoopSpec) -> float:
    """Signed solid angle of a wedge-family loop.

    Meridian arcs never move phi and the equator sits at theta = pi/2, so
    the enclosed area reduces exactly to the summed equatorial openings."""
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
    return (2 * n + 1) * math.pi / (2 * n * omega) * math.sqrt(16.0 * k * k * n * n - 1.0)


def _is_number(value) -> bool:
    """A float, or an int (not a bool) that a float can hold: the only type
    of number that config, loop and noise files may hold, though a JSON
    integer has no size limit. Finiteness and range are the reader's."""
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _number(value, name: str) -> float:
    if not _is_number(value):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def loop_from_dict(doc: dict) -> LoopSpec:
    """The loop of a loop file's document."""
    angles = ("fixed_angle", "start_angle", "end_angle", "duration")
    arcs = tuple(
        ArcSegment(ArcKind(a["kind"]), *(_number(a[key], key) for key in angles))
        for a in doc["arcs"]
    )
    loop = LoopSpec(omega_scale=_number(doc["omega_scale"], "omega_scale"), arcs=arcs)
    declared = doc.get("total_time")
    # written so that a NaN total_time fails too
    if declared is not None and not (
        abs(loop.total_time - _number(declared, "total_time")) <= 1e-9 * loop.total_time
    ):
        raise ValueError("declared total_time inconsistent with arc durations")
    return loop
