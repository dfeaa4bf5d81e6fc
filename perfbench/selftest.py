#!/usr/bin/env python3
"""Self-test of the benchmark's hooks and checks, on the package as seeded.

    python3 perfbench/selftest.py

1. Hooks: one traced call per workload. Every namespace that imports a
   hooked function by name must hold the wrapper while the pass runs and the
   original afterwards, and the counts must be the ones the seed package
   makes: no channel integration on ideal-sweep, 100 `apply` calls per noisy
   evaluation, and 43 integrations per optimal point.
2. Checks: a written output perturbed beyond its tolerance, or missing,
   must be flagged, and must lower the ok ratio. So must the output of a
   package whose exact propagator, or the matrix exponential under it, is
   slightly wrong: the lambda^2=0 references are committed, not recomputed
   from the code under test.

The seed counts describe the package this benchmark was defined on; a
change that moves them on purpose updates them here.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import spans  # noqa: E402

import numpy as np  # noqa: E402

SEED_COUNTS = {
    "ideal-sweep": {"lindblad.loop_channel": 0},
    "noisy-sweep": {"lindblad.loop_channel": 26, "lindblad.apply": 2600},
    "optimal-table": {"lindblad.loop_channel": 43, "analysis.find_optimal_point": 1},
}
SEED_INTEGRATIONS_PER_OPTIMAL_POINT = 43

# Namespaces that bind another module's function by name.
IMPORTERS = {
    "analysis": ("loop_channel", "loop_propagator", "adiabatic_gate", "start_frame",
                 "with_total_time", "ordered_map"),
    "cli": ("sweep", "optimal_point_table"),
    "propagators": ("eigenframe",),
    "lindblad": ("eigenframe",),
}

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def is_wrapped(obj) -> bool:
    return hasattr(obj, "__wrapped_original__")


def wrapped_bindings(mods) -> dict[str, bool]:
    state = {f"{m}.{a}": is_wrapped(getattr(mods[m], a))
             for m, attrs in IMPORTERS.items() for a in attrs}
    state["cli._COMMANDS"] = all(is_wrapped(f) for f in mods["cli"]._COMMANDS.values())
    state["lindblad.LoopChannel.apply"] = is_wrapped(mods["lindblad"].LoopChannel.apply)
    return state


def hook_checks(pkg, cli) -> None:
    mods = spans.package_modules(pkg)
    for name, cls in run.WORKLOAD_CLASSES.items():
        workload = cls(np.random.default_rng(0))
        workload.prepare()
        tally = run.Tally()
        tracer = spans.Tracer()
        hooks = spans.Hooks(pkg, tracer, on_return={"lindblad.loop_channel": run._on_loop_channel})
        with hooks:
            inside = wrapped_bindings(mods)
            run.run_call(cli, workload, 0, 1, tally)
        after = wrapped_bindings(mods)
        expect(all(inside.values()), f"{name}: wrappers installed in {sorted(inside)}")
        expect(not any(after.values()), f"{name}: originals restored after the pass")
        expect(tally.failed == 0, f"{name}: traced call passes its output checks")
        try:
            run.check_liveness(workload, tracer, workload.call(0)[2])
            expect(True, f"{name}: liveness counts")
        except spans.HookError as exc:
            expect(False, f"{name}: {exc}")
        for key, want in SEED_COUNTS[name].items():
            expect(tracer.calls[key] == want, f"{name}: {key} calls {tracer.calls[key]} == {want}")
        if name == "optimal-table":
            per_point = run.layer_metrics(tracer, {"bytes": 0})["analysis.integrations_per_optimal_point"]
            expect(per_point == SEED_INTEGRATIONS_PER_OPTIMAL_POINT,
                   f"{name}: integrations per optimal point {per_point} == "
                   f"{SEED_INTEGRATIONS_PER_OPTIMAL_POINT}")


def check_negative(pkg, cli) -> None:
    # A real sweep output, then the same output with one value moved.
    workload = run.IdealSweep(np.random.default_rng(0))
    workload.prepare()
    tally = run.Tally()
    run.run_call(cli, workload, 0, run.nproc(), tally)
    expect(tally.failed == 0, "ideal-sweep: unperturbed output passes")
    ok_before = 1 - tally.failed / tally.attempted
    out = run.WORK / workload.name / "out"
    csv = out / "sweep_lambda2_0.csv"
    lines = csv.read_text().splitlines()
    ot, f = lines[400].split(",")
    lines[400] = f"{ot},{float(f) - 10 * run.FID_TOL:.12g}"
    csv.write_text("\n".join(lines) + "\n")
    problems: list[str] = []
    fid_err, _ = workload.check(out, workload.argv, problems)
    tally.record(problems, fid_err, 0.0)
    expect(bool(problems) and fid_err > run.FID_TOL, f"perturbed F flagged: {problems[:1]}")
    expect(1 - tally.failed / tally.attempted < ok_before, "ok ratio falls with the failed check")
    csv.unlink()
    problems = []
    workload.check(out, workload.argv, problems)
    expect(bool(problems), f"missing CSV flagged: {problems[:1]}")

    # The optimal-point check on a table written from the reference itself.
    table = run.OptimalTable(np.random.default_rng(0))
    table.prepare()
    argv = table.call(0)[0]
    lambdas = [float(t) for t in argv[-1].split(",")]
    rows = [dict(table.table[lam]) for lam in lambdas]
    path = run.WORK / "selftest" / "optimal_points.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    for field, delta, label in ((None, 0.0, "reference table passes"),
                                ("omega_tau_star", 2 * run.TAU_TOL, "perturbed tau* flagged"),
                                ("f_star", 2 * run.FID_TOL, "perturbed F* flagged")):
        doc = [dict(r) for r in rows]
        if field:
            doc[-1][field] += delta
        path.write_text(json.dumps({"rows": doc}))
        problems = []
        table.check(path.parent, argv, problems)
        expect(bool(problems) == bool(field), f"optimal-table: {label}")


def _kicked_propagator(original):
    """loop_propagator followed by a 0.01 rad rotation of two ground states."""
    c, s = np.cos(0.01), np.sin(0.01)
    kick = np.eye(4, dtype=complex)
    kick[:2, :2] = [[c, -s], [s, c]]

    def perturbed(loop):
        gate = original(loop)
        return dataclasses.replace(gate, matrix=kick @ gate.matrix)

    return perturbed


def _stretched_exp(original):
    """exp_i_hermitian with its time scale off by 1e-4."""
    return lambda a, s: original(a, s * (1.0 + 1e-4))


def function_bindings(mods) -> dict:
    return {(id(ns), key): val for ns in spans.namespaces(mods) for key, val in ns.items()
            if inspect.isfunction(val)}


def check_wrong_package(pkg, cli) -> None:
    mods = spans.package_modules(pkg)
    before = function_bindings(mods)
    for target, make in (("propagators.loop_propagator", _kicked_propagator),
                         ("linalg.exp_i_hermitian", _stretched_exp)):
        workload = run.IdealSweep(np.random.default_rng(0))
        workload.prepare()
        tally = run.Tally()
        with spans.substituted(pkg, {target: make}):
            run.run_call(cli, workload, 0, 1, tally)
        expect(tally.failed == 1 and tally.fid_err > run.FID_TOL,
               f"ideal-sweep with a perturbed {target} fails its check "
               f"(|F - F_ref| up to {tally.fid_err:.3g})")
    expect(function_bindings(mods) == before, "perturbed functions removed afterwards")


def main() -> int:
    pkg, cli = run.import_package()
    hook_checks(pkg, cli)
    check_negative(pkg, cli)
    check_wrong_package(pkg, cli)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
