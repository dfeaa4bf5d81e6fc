#!/usr/bin/env python3
"""Benchmark of the tripod-holonomy command line, run in-process.

    python3 perfbench/run.py --workload ideal-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

(`all` runs the workloads one after another in one process, so there
peak_rss_mb is the peak so far.)

Workloads (one CLI call each, default --states and --steps; the seed makes
the arguments):

  ideal-sweep    `ideal-sweep` on a 961-point grid over Omega*tau 0.25-60.25,
                 shifted by k/16 of its spacing, k seeded. Exact lambda^2=0
                 path only; pool start-up and pickling are a large share.
  noisy-sweep    `noisy-sweep` on 13 points over the same range at lambda^2 = 0
                 plus 2 values drawn from the CLI default list: one channel
                 integration per point, fanned out over the worker pool.
  optimal-table  `optimal` at one coupling of the 7-point fit grid 1e-4..1e-3:
                 serial, 43 channel integrations per point. The first call
                 of every run takes 1e-3, where the integrator's error is
                 largest, so the accuracy metrics read the worst case of the
                 grid in every run; later calls take the other six in a
                 seeded order.

Every written fidelity and peak is checked against an independent reference
committed in reference_table.json (see reference.py); a non-zero exit, a
missing output or a failed check counts as a failed call.

End-to-end metrics (--trace 0): setup_s (fresh-interpreter import, loop and
noise, one warm-up evaluation; median of at least SETUP_PROBES probes, one
between each two timed calls and the rest after them), wall_s (mean time of
one CLI call with its file writes), points_per_s ((Omega*tau, lambda^2)
fidelity points written per second of the calls), optimal_point_s (call
time per lambda^2), fid_abs_err_max and tau_star_abs_err_max (largest
|F - F_ref| and |Omega*tau* - ref| over every output of the run, floored at
the references' resolution; sweeps write no tau*, so it reads its floor
there), peak_rss_mb (this process plus its largest pool worker, read before
the first set-up probe) and ok_ratio (calls that passed / calls attempted).

With --trace 1 a traced pass (HOLONOMY_THREADS=1, every public function
wrapped, see spans.py) gives the per-layer metrics, next to an untraced
1-worker pass and a default-worker pass that wraps only `ordered_map`.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One BLAS thread per process; the worker pool is the only parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import reference as ref  # noqa: E402
import spans as tr  # noqa: E402

# Stated accuracy of the outputs: an output further than this from its
# reference fails its check.
FID_TOL = 2e-5
TAU_TOL = 2e-4
# Errors below the references' own resolution read as these floors (the
# reference table's step-doubling change is ~1e-12; CSVs keep 12 digits).
FID_ERR_FLOOR = 1e-11
TAU_ERR_FLOOR = 1e-7
SETUP_PROBES = 15

WORKLOADS = ("ideal-sweep", "noisy-sweep", "optimal-table")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package or reference)."""


def import_package():
    if not (SRC / "tripod_holonomy" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tripod_holonomy
    from tripod_holonomy import cli

    if Path(tripod_holonomy.__file__).resolve().parent != SRC / "tripod_holonomy":
        raise BenchError(f"imported {tripod_holonomy.__file__}, not the checkout's package")
    return tripod_holonomy, cli


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Workloads: seeded CLI arguments and the checks of what each call writes
# ---------------------------------------------------------------------------
# Each workload class makes its CLI calls from the seed: call(i) gives the
# arguments of call i, the fidelity points it writes and its number of
# lambda^2 values; prepare() loads or computes the references that check()
# compares the written outputs with.


def _fmt(x: float) -> str:
    return repr(float(x))


def _lambda_file(lam: float) -> str:
    return f"sweep_lambda2_{lam:.12g}.csv"


def _check_csv(path: Path, grid, refs, problems: list[str]) -> float:
    """Max |F - F_ref| of one sweep CSV; appends what is wrong to problems."""
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return 0.0
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "omega_tau,mean_fidelity" or len(lines) != len(grid) + 1:
        problems.append(f"{path.name}: bad header or {len(lines) - 1} rows for {len(grid)} points")
        return 0.0
    worst = 0.0
    for line, ot_ref, f_ref in zip(lines[1:], grid, refs):
        try:
            ot, f = (float(tok) for tok in line.split(","))
        except ValueError:
            problems.append(f"{path.name}: unparsable row {line!r}")
            continue
        if abs(ot - ot_ref) > 1e-9 * max(1.0, abs(ot_ref)):
            problems.append(f"{path.name}: omega_tau {ot} where {ot_ref} was asked")
        err = abs(f - f_ref)
        worst = max(worst, err)
        if not err <= FID_TOL:
            problems.append(f"{path.name}: F={f} at omega_tau={ot_ref}, reference {f_ref}")
    return worst


class IdealSweep:
    name = "ideal-sweep"
    warmup = (ref.TAU1, 0.0)

    def __init__(self, rng) -> None:
        self.grid = ref.ideal_grid(int(rng.integers(ref.IDEAL_SHIFTS)))
        self.argv = ["ideal-sweep", "--grid",
                     f"{_fmt(self.grid[0])}:{_fmt(self.grid[-1])}:{len(self.grid)}"]
        self.refs = None

    def prepare(self) -> None:
        self.refs = ref.ideal_reference(ref.load_table(), self.grid)

    def call(self, i: int) -> tuple[list[str], int, int]:
        return self.argv, len(self.grid), 1

    def check(self, out: Path, argv, problems) -> tuple[float, float]:
        return _check_csv(out / _lambda_file(0.0), self.grid, self.refs, problems), 0.0


class NoisySweep:
    name = "noisy-sweep"
    warmup = (ref.TAU1, ref.NOISY_LAMBDAS[0])

    def __init__(self, rng) -> None:
        self.rng = rng
        self.grid = ref.grid_values(ref.NOISY_GRID)
        self.refs = {}
        self.draws = {}

    def prepare(self) -> None:
        table = ref.load_table()
        self.refs[0.0] = ref.ideal_reference(table, self.grid)
        rows = table["noisy"]
        for lam in ref.NOISY_LAMBDAS:
            by_ot = {round(r["omega_tau"], 9): r["f"] for r in rows if r["lambda_sq"] == lam}
            self.refs[lam] = [by_ot[round(float(ot), 9)] for ot in self.grid]

    def call(self, i: int) -> tuple[list[str], int, int]:
        if i not in self.draws:
            picks = sorted(self.rng.choice(len(ref.NOISY_LAMBDAS), ref.NOISY_DRAWS, replace=False))
            self.draws[i] = (0.0,) + tuple(ref.NOISY_LAMBDAS[j] for j in picks)
        lambdas = self.draws[i]
        start, stop, points = ref.NOISY_GRID
        argv = ["noisy-sweep", "--grid", f"{start}:{stop}:{points}",
                "--lambda-sq", ",".join(_fmt(lam) for lam in lambdas)]
        return argv, len(self.grid) * len(lambdas), len(lambdas)

    def check(self, out: Path, argv, problems) -> tuple[float, float]:
        lambdas = [float(tok) for tok in argv[-1].split(",")]
        return max(_check_csv(out / _lambda_file(lam), self.grid, self.refs[lam], problems)
                   for lam in lambdas), 0.0


class OptimalTable:
    name = "optimal-table"
    warmup = (ref.TAU1, ref.FIT_LAMBDAS[-1])

    def __init__(self, rng) -> None:
        self.order = [ref.FIT_LAMBDAS[j] for j in rng.permutation(len(ref.FIT_LAMBDAS) - 1)]
        self.table = {}

    def prepare(self) -> None:
        self.table = {r["lambda_sq"]: r for r in ref.load_table()["optimal"]}
        missing = set(ref.FIT_LAMBDAS) - set(self.table)
        if missing:
            raise BenchError(f"reference table lacks optimal points {sorted(missing)}")

    def call(self, i: int) -> tuple[list[str], int, int]:
        lam = self.order[(i - 1) % len(self.order)] if i else ref.FIT_LAMBDAS[-1]
        return ["optimal", "--lambda-sq", _fmt(lam)], 1, 1

    def check(self, out: Path, argv, problems) -> tuple[float, float]:
        lambdas = [float(tok) for tok in argv[-1].split(",")]
        path = out / "optimal_points.json"
        try:
            rows = json.loads(path.read_text())["rows"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"optimal_points.json unreadable: {exc}")
            return 0.0, 0.0
        if [r.get("lambda_sq") for r in rows] != lambdas:
            problems.append(f"rows for {[r.get('lambda_sq') for r in rows]}, asked {lambdas}")
            return 0.0, 0.0
        fid_err = tau_err = 0.0
        for r in rows:
            want = self.table[r["lambda_sq"]]
            df = abs(r["f_star"] - want["f_star"])
            dt = abs(r["omega_tau_star"] - want["omega_tau_star"])
            fid_err, tau_err = max(fid_err, df), max(tau_err, dt)
            if not (df <= FID_TOL and dt <= TAU_TOL):
                problems.append(f"lambda_sq={r['lambda_sq']}: (tau*, F*) = "
                                f"({r['omega_tau_star']}, {r['f_star']}), reference "
                                f"({want['omega_tau_star']}, {want['f_star']})")
        return fid_err, tau_err


WORKLOAD_CLASSES = {w.name: w for w in (IdealSweep, NoisySweep, OptimalTable)}


# ---------------------------------------------------------------------------
# Running and checking one CLI call
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed calls, and the worst output errors seen."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.fid_err = self.tau_err = 0.0
        self.problems: list[str] = []

    def record(self, problems: list[str], fid_err: float, tau_err: float) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)
        self.fid_err = max(self.fid_err, fid_err)
        self.tau_err = max(self.tau_err, tau_err)


def run_call(cli, workload, i: int, workers: int, tally: Tally) -> dict:
    """One timed CLI call into a fresh output directory, then its checks."""
    argv, points, lambdas = workload.call(i)
    out = WORK / workload.name / "out"
    shutil.rmtree(out, ignore_errors=True)
    os.environ["HOLONOMY_THREADS"] = str(workers)
    problems: list[str] = []
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv + ["--out", str(out)])
    except Exception:  # a traceback out of the CLI is a failed call, not a crash
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    fid_err = tau_err = 0.0
    if code != 0:
        problems.append(f"{' '.join(argv)}: exit code {code}")
    else:
        if not (out / "run_config.json").is_file():
            problems.append("missing run_config.json")
        fid_err, tau_err = workload.check(out, argv, problems)
    tally.record(problems, fid_err, tau_err)
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0
    return {"wall": wall, "points": points, "lambdas": lambdas, "bytes": size}


def until(seconds: float, step) -> list:
    """Repeat step() while the next repeat is expected to end within
    `seconds`; always at least once."""
    results, t0 = [], time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results


def setup_probe(workload) -> float:
    """Seconds of one cold set-up in a fresh interpreter."""
    ot, lam = workload.warmup
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), _fmt(ot), _fmt(lam)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# End-to-end and traced measurements
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(pkg, cli, workload, seconds: float, tally: Tally) -> dict:
    """Times are totals over the run divided by the work done, and set-up
    probes run between the timed calls: this host's speed drifts over tens
    of seconds, and only an average over the whole run is steady."""
    workload.prepare()
    setup: list[float] = []
    children_kb = 0

    def step(i: int) -> dict:
        nonlocal children_kb
        c = run_call(cli, workload, i, nproc(), tally)
        if i == 0:
            # Read before any set-up probe has run, so that the only children
            # waited for are the CLI's pool workers, which every call starts alike.
            children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            setup.append(setup_probe(workload))
        return c

    calls = until(seconds, step)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kb
    wall = sum(c["wall"] for c in calls)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall / len(calls), "s"),
        "points_per_s": metric(sum(c["points"] for c in calls) / wall, "1/s"),
        "optimal_point_s": metric(wall / sum(c["lambdas"] for c in calls), "s"),
        "fid_abs_err_max": metric(max(tally.fid_err, FID_ERR_FLOOR), "1"),
        "tau_star_abs_err_max": metric(max(tally.tau_err, TAU_ERR_FLOOR), "1"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "ok_ratio": metric((tally.attempted - tally.failed) / max(1, tally.attempted), "1"),
    }


def _on_loop_channel(tracer, channel) -> None:
    tracer.values["lindblad.steps"] += channel.steps


def _on_ordered_map(tracer, results) -> None:
    tracer.values["parallel.tasks"] += len(results)


def check_liveness(workload, tracer: tr.Tracer, lambdas: int) -> None:
    """Counts that any correct run of this workload must show; a zero here
    means a hook missed its target."""
    need = {"cli.main": 1, "analysis.mean_fidelity": None, "tripod.eigenframe": None}
    if isinstance(workload, OptimalTable):
        need.update({"analysis.find_optimal_point": lambdas, "lindblad.loop_channel": None})
    else:
        need["analysis.sweep"] = 1
        need["parallel.ordered_map"] = 1
    if isinstance(workload, IdealSweep):
        need["propagators.loop_propagator"] = None
    if isinstance(workload, NoisySweep):
        need["lindblad.loop_channel"] = None
    for name, want in need.items():
        got = tracer.calls[name]
        if got == 0 or (want is not None and got != want):
            raise tr.HookError(f"hook self-check: {name} called {got} times, expected "
                               f"{want if want is not None else 'at least once'}")


def layer_metrics(tracer: tr.Tracer, c: dict) -> dict:
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    opt = calls["analysis.find_optimal_point"]
    under = tracer.under["analysis.find_optimal_point"]
    steps = tracer.values["lindblad.steps"]
    m = {
        "lindblad.loop_channel.calls": calls["lindblad.loop_channel"],
        "lindblad.loop_channel.s": total["lindblad.loop_channel"],
        "lindblad.steps": steps,
        "lindblad.us_per_step": 1e6 * total["lindblad.loop_channel"] / steps if steps else 0.0,
        "lindblad.apply.calls": calls["lindblad.apply"],
        "lindblad.apply.s": total["lindblad.apply"],
        "tripod.eigenframe.calls": calls["tripod.eigenframe"],
        "tripod.eigenframe.s": total["tripod.eigenframe"],
        "analysis.find_optimal_point.calls": opt,
        "analysis.find_optimal_point.s": total["analysis.find_optimal_point"],
        "analysis.evals_per_optimal_point": under["analysis.mean_fidelity"] / opt if opt else 0.0,
        "analysis.integrations_per_optimal_point":
            under["lindblad.loop_channel"] / opt if opt else 0.0,
        "analysis.mean_fidelity.calls": calls["analysis.mean_fidelity"],
        "analysis.mean_fidelity.self_s": own["analysis.mean_fidelity"],
        "analysis.sweep.s": total["analysis.sweep"],
        "propagators.loop_propagator.calls": calls["propagators.loop_propagator"],
        "propagators.loop_propagator.s": total["propagators.loop_propagator"],
        "propagators.adiabatic_gate.calls": calls["propagators.adiabatic_gate"],
        "propagators.adiabatic_gate.s": total["propagators.adiabatic_gate"],
        "linalg.exp_i_hermitian.calls": calls["linalg.exp_i_hermitian"],
        "linalg.exp_i_hermitian.s": total["linalg.exp_i_hermitian"],
        "loops.with_total_time.calls": calls["loops.with_total_time"],
        "loops.with_total_time.s": total["loops.with_total_time"],
        "cli.main.s": total["cli.main"],
        "cli.bytes_written": c["bytes"],
    }
    for layer in tr.LAYERS:
        if layer != "parallel":
            m[f"{layer}.self_s"] = tracer.layer_self_s[layer]
    return m


LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "steps": "count",
               "us_per_step": "us", "bytes_written": "B", "evals_per_optimal_point": "count",
               "integrations_per_optimal_point": "count", "tasks": "count",
               "workers": "count", "speedup": "ratio", "overhead_ratio": "ratio"}


def traced(pkg, cli, workload, seconds: float, tally: Tally) -> dict:
    workload.prepare()
    per_cycle = []

    def cycle(i: int) -> dict:
        untraced = run_call(cli, workload, i, 1, tally)
        tracer = tr.Tracer()
        with tr.Hooks(pkg, tracer, on_return={"lindblad.loop_channel": _on_loop_channel}):
            c = run_call(cli, workload, i, 1, tally)
        check_liveness(workload, tracer, workload.call(i)[2])
        m = layer_metrics(tracer, c)
        pool = tr.Tracer()
        with tr.Hooks(pkg, pool, names=("parallel.ordered_map",),
                      on_return={"parallel.ordered_map": _on_ordered_map}):
            d = run_call(cli, workload, i, nproc(), tally)
        tasks = pool.values["parallel.tasks"]
        m.update({
            "parallel.ordered_map.s": pool.total_s["parallel.ordered_map"],
            "parallel.tasks": tasks,
            "parallel.workers": min(nproc(), tasks),
            "parallel.speedup": untraced["wall"] / d["wall"],
            "trace.overhead_ratio": c["wall"] / untraced["wall"],
        })
        per_cycle.append(m)
        return m

    until(seconds, cycle)
    out = {}
    for name in per_cycle[0]:
        unit = LAYER_UNITS[name.rsplit(".", 1)[1]]
        out[name] = metric(statistics.median(m[name] for m in per_cycle), unit)
    return out


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git (a child
    process would count in peak_rss_mb); None outside a git checkout."""
    head_path = ROOT / ".git" / "HEAD"
    try:
        head = head_path.read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(pkg, seed: int) -> dict:
    import multiprocessing

    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "tripod_holonomy").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "holonomy_threads": {"end_to_end": nproc(), "traced": 1, "pool_pass": nproc()},
        "start_method": multiprocessing.get_start_method(),
        "package_version": pkg.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_workload(pkg, cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    workload = WORKLOAD_CLASSES[name](np.random.default_rng(seed))
    tally = Tally()
    measure = traced if trace else end_to_end
    metrics = measure(pkg, cli, workload, seconds, tally)
    for problem in tally.problems:
        print(f"check failed [{name}]: {problem}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg, cli = import_package()
        prov = provenance(pkg, args.seed)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(pkg, cli, name, args.seed, args.seconds, bool(args.trace))
    except (BenchError, tr.HookError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        os.environ.pop("HOLONOMY_THREADS", None)
    WORK.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        print(f"== {name} (seed {args.seed}, trace {args.trace}): "
              f"{result['attempted']} calls, {result['failed']} failed")
        for key, m in result["metrics"].items():
            print(f"  {key:42s} {m['value']:<22.10g} {m['unit']}")
        (WORK / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps({"provenance": prov, **result}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
