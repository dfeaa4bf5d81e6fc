"""Workload input sets and independent references for the benchmark.

The references never run the code under test at its default settings, and
none is computed while the benchmark runs: all are committed in
reference_table.json, over every point a seed can draw.

- lambda^2 = 0: the exact Bloch average over the 6 octahedral states (a
  spherical 2-design, so the average of the quadratic fidelity is exact),
  built from the exact propagator, the adiabatic gate and the start frame,
  on each of the IDEAL_SHIFTS shifted ideal grids and on the noisy grid.
  The table also records how far the exact propagator is from a
  brute-force Schrodinger integration at a few points;
- lambda^2 > 0: the same 6-state average of a channel integrated with
  REF_STEP_FACTOR times the default step count.

Run this file to regenerate the table from the package in ../src:

    python3 perfbench/reference.py            # writes perfbench/reference_table.json
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
TABLE_PATH = BENCH_DIR / "reference_table.json"

# Workload input sets. They are fixed here, not imported from the package,
# so that a change to the package defaults cannot silently move the inputs
# off the committed reference table.
IDEAL_GRID = (0.25, 60.25, 961)        # shifted per seed by k/IDEAL_SHIFTS of a spacing
IDEAL_SHIFTS = 16
NOISY_GRID = (0.25, 60.25, 13)
NOISY_LAMBDAS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05)   # the CLI default list minus 0
NOISY_DRAWS = 2
FIT_LAMBDAS = tuple(float(x) for x in np.linspace(1e-4, 1e-3, 7))
TAU1 = 1.5 * math.pi * math.sqrt(15.0)  # first revival of the standard loop, Omega = 1

REF_STEP_FACTOR = 4
REF_PEAK_TOL = 1e-6
ORACLE_POINTS = (0.25, 3.94, 7.3, TAU1, 30.0, 60.25)


def default_steps(omega_tau: float) -> int:
    """The package's default resolution at this Omega*tau, frozen as of the
    benchmark's definition."""
    return max(1000, int(math.ceil(60.0 * omega_tau)))


def grid_values(grid: tuple[float, float, int], shift: float = 0.0) -> np.ndarray:
    start, stop, points = grid
    return np.linspace(start + shift, stop + shift, points)


def ideal_grid(k: int) -> np.ndarray:
    """The ideal-sweep grid shifted by k/IDEAL_SHIFTS of its spacing."""
    start, stop, points = IDEAL_GRID
    return grid_values(IDEAL_GRID, k * (stop - start) / (points - 1) / IDEAL_SHIFTS)


def octahedral_states(dark: np.ndarray) -> list[np.ndarray]:
    """The 6 states +-x, +-y, +-z of the Bloch sphere over span(dark)."""
    d0, d1 = dark[:, 0], dark[:, 1]
    r = 1.0 / math.sqrt(2.0)
    return [d0, d1, r * (d0 + d1), r * (d0 - d1), r * (d0 + 1j * d1), r * (d0 - 1j * d1)]


def _loop(omega_tau: float):
    from tripod_holonomy import with_total_time, wedge_loop

    return with_total_time(wedge_loop(1, 1.0, 1.0), omega_tau)


def exact_ideal_fidelity(omega_tau: float, oracle: bool = False) -> float:
    """Exact Bloch-average fidelity of the noiseless loop; with `oracle`,
    of the brute-force Schrodinger propagator instead of the exact one."""
    from tripod_holonomy import adiabatic_gate, loop_propagator
    from tripod_holonomy.propagators import schrodinger_oracle, start_frame

    loop = _loop(omega_tau)
    u = (schrodinger_oracle if oracle else loop_propagator)(loop).matrix
    m = adiabatic_gate(loop).matrix.conj().T @ u
    states = octahedral_states(start_frame(loop).dark)
    return float(np.mean([abs(np.vdot(psi, m @ psi)) ** 2 for psi in states]))


def exact_noisy_fidelity(omega_tau: float, lambda_sq: float, steps: int) -> float:
    """6-state Bloch average of a channel integrated with `steps` steps."""
    from tripod_holonomy import adiabatic_gate, high_temperature_noise, loop_channel
    from tripod_holonomy.propagators import start_frame

    loop = _loop(omega_tau)
    target = adiabatic_gate(loop).matrix
    channel = loop_channel(loop, high_temperature_noise(lambda_sq), steps)
    total = 0.0
    for psi in octahedral_states(start_frame(loop).dark):
        sigma0 = np.outer(psi, psi.conj())
        sigma_ad = target @ sigma0 @ target.conj().T
        total += np.trace(sigma_ad @ channel.apply(sigma0)).real
    return total / 6.0


def reference_peak(lambda_sq: float, steps: int) -> tuple[float, float, int]:
    """(Omega*tau*, F*, evaluations) of the first revival peak: golden
    section to REF_PEAK_TOL, then the vertex of a least-squares parabola
    through 7 points around it."""
    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        evals += 1
        return exact_noisy_fidelity(x, lambda_sq, steps)

    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = TAU1 - 0.6, TAU1 + 0.3
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > REF_PEAK_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    x0 = 0.5 * (a + b)
    xs = x0 + np.linspace(-0.03, 0.03, 7)
    coef = np.polyfit(xs - x0, [f(x) for x in xs], 2)
    x_star = x0 - coef[1] / (2.0 * coef[0])
    return float(x_star), f(x_star), evals


def load_table(path: Path = TABLE_PATH) -> dict:
    return json.loads(path.read_text())


def dump_table(table: dict) -> str:
    """JSON with one line per row, so the file stays short and diffs readable."""
    parts = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()
             if not isinstance(v, list)]
    for key, rows in table.items():
        if isinstance(rows, list):
            parts.append(f" {json.dumps(key)}: [\n  "
                         + ",\n  ".join(json.dumps(r) for r in rows) + "\n ]")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def ideal_reference(table: dict, grid: np.ndarray) -> list[float]:
    """The committed lambda^2=0 fidelities on `grid`."""
    for entry in table["ideal"]:
        start, stop, points = entry["grid"]
        if (points == len(grid) and abs(start - grid[0]) <= 1e-12
                and abs(stop - grid[-1]) <= 1e-12):
            return entry["f"]
    raise KeyError(f"no lambda^2=0 reference on the grid {grid[0]}:{grid[-1]}:{len(grid)}")


def build_table() -> dict:
    t0 = time.perf_counter()
    ideal = []
    for grid in [ideal_grid(k) for k in range(IDEAL_SHIFTS)] + [grid_values(NOISY_GRID)]:
        ideal.append({"grid": [float(grid[0]), float(grid[-1]), len(grid)],
                      "f": [exact_ideal_fidelity(float(ot)) for ot in grid]})
    print(f"ideal  {len(ideal)} grids done ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    oracle_change = max(abs(exact_ideal_fidelity(ot, oracle=True) - exact_ideal_fidelity(ot))
                        for ot in ORACLE_POINTS)
    noisy = []
    for ot in grid_values(NOISY_GRID):
        steps = REF_STEP_FACTOR * default_steps(ot)
        for lam in NOISY_LAMBDAS:
            noisy.append({"omega_tau": float(ot), "lambda_sq": lam, "steps": steps,
                          "f": exact_noisy_fidelity(float(ot), lam, steps)})
        print(f"noisy  omega_tau={ot:6.2f} done ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    peak_steps = REF_STEP_FACTOR * default_steps(TAU1)
    optimal = []
    for lam in FIT_LAMBDAS:
        x, fx, evals = reference_peak(lam, peak_steps)
        optimal.append({"lambda_sq": lam, "omega_tau_star": x, "f_star": fx,
                        "steps": peak_steps, "evaluations": evals})
        print(f"peak   lambda_sq={lam:.2e} tau*={x:.7f} F*={fx:.10f} "
              f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    # Resolution of the reference itself: the change from doubling its steps.
    check = []
    for ot, lam in ((NOISY_GRID[1], NOISY_LAMBDAS[-1]), (TAU1, FIT_LAMBDAS[-1])):
        s = REF_STEP_FACTOR * default_steps(ot)
        check.append(abs(exact_noisy_fidelity(ot, lam, 2 * s) - exact_noisy_fidelity(ot, lam, s)))
    import tripod_holonomy

    return {
        "description": "6-state exact Bloch averages: of the exact lambda^2=0 propagator "
                       f"on {IDEAL_SHIFTS} shifted ideal grids and the noisy grid, and of the "
                       f"loop channel at {REF_STEP_FACTOR}x the default steps; peaks to "
                       f"{REF_PEAK_TOL} in Omega*tau",
        "package_version": tripod_holonomy.__version__,
        "ref_step_factor": REF_STEP_FACTOR,
        "peak_tol": REF_PEAK_TOL,
        "step_doubling_change_max": max(check),
        "exact_vs_oracle_max": oracle_change,
        "ideal": ideal,
        "noisy": noisy,
        "optimal": optimal,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    table = build_table()
    TABLE_PATH.write_text(dump_table(table))
    print(f"wrote {TABLE_PATH}", file=sys.stderr)
