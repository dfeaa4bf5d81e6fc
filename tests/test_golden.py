"""The `--quick` figure set and two uneven-table runs against the outputs
committed under tests/golden/, number by number, each within a bound
stated below with its reason. Echoed paths are skipped; every other
value of a config block, noise table and grid must match exactly.

Regenerate the golden files, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and list the largest shift per file in CHANGES.md when a change moves a
value past its bound. The same run counts the work of each command
against LEDGER.
"""

import csv
import importlib.util
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import pytest

from tripod_holonomy import analysis, cli, lindblad
from tripod_holonomy.analysis import PEAK_TOL

from conftest import UNEQUAL_NOISE

GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figure_data.py"

# Mean fidelity, in sweep curves and as F*: the default step count's largest
# |dF| against 4x its steps is 1.2e-10 (ROADMAP item 3), so a change of the
# integrator within its accuracy may move F that far; the CSVs' 12
# significant digits add at most 5e-13.
F_TOL = 2e-10
# Omega*tau*: Brent's method stops once the peak is within PEAK_TOL of its
# best point, so a search that moves further took another path to its end.
TAU_TOL = PEAK_TOL
# Keys that echo where a run wrote or read its files.
ECHOED = {"out", "table", "noise_file"}

# The uneven table of the tier-1 channel tests, at lambda^2 = 0.
UNEVEN_NOISE = json.dumps(asdict(UNEQUAL_NOISE.with_lambda_sq(0.0))) + "\n"
UNEVEN_RUNS = (
    ["noisy-sweep", "--grid", "0.25:60.25:13", "--lambda-sq", "0.005,0.05"],
    ["optimal", "--lambda-sq", "0.001,0.05"],
)

# The work of each command of write_outputs, by output directory, starting
# from no channel plan: loop_channel calls, channel points, step
# exponentials, channel plan builds, exact-engine calls and exact-engine
# points. A change to any of them is a change to what the commands do; the
# change that makes it states it in CHANGES.md.
LEDGER = {
    "quick/ideal": (0, 0, 0, 0, 1, 61),
    "quick/optimal": (93, 119, 11_543, 1, 4, 6),
    "quick/noisy": (6, 366, 35_502, 0, 0, 0),
    "quick/robustness": (13, 13, 1_261, 0, 1, 1),
    "quick/fit_all": (0, 0, 0, 0, 0, 0),
    "quick/fit_small": (0, 0, 0, 0, 0, 0),
    "uneven/noisy-sweep": (2, 26, 2_522, 1, 0, 0),
    "uneven/optimal": (16, 20, 1_940, 0, 0, 0),
}

# Commands of the benchmark's three workloads, by output directory, run in
# this order from one cleared plan cache, with their work as LEDGER counts
# it; the last grid lies past Omega*tau 60.4, where each point's own default
# count would differ, and takes one plan at its longest loop's count.
BENCHMARK_RUNS = {
    "ideal": (["ideal-sweep", "--grid", "0.25:60.25:961"], (0, 0, 0, 0, 1, 961)),
    "noisy": (["noisy-sweep", "--grid", "0.25:60.25:13", "--lambda-sq", "0,0.005,0.05"],
              (2, 26, 2_522, 1, 1, 13)),
    "optimal": (["optimal", "--lambda-sq", "0.001"], (6, 8, 776, 0, 0, 0)),
    "noisy-long": (["noisy-sweep", "--grid", "60.25:120.25:13", "--lambda-sq", "0.05"],
                   (1, 13, 2_509, 1, 0, 0)),
}


def write_outputs(out: Path) -> None:
    """The `--quick` figure set in out/quick, and the uneven-table runs in
    out/uneven with their noise file."""
    spec = importlib.util.spec_from_file_location("reproduce_figure_data", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--quick", "--out", str(out / "quick")]) == 0
    uneven = out / "uneven"
    uneven.mkdir(parents=True)
    (uneven / "uneven_noise.json").write_text(UNEVEN_NOISE)
    for argv in UNEVEN_RUNS:
        run = uneven / argv[0]
        assert cli.main([*argv, "--noise-file", str(uneven / "uneven_noise.json"),
                         "--out", str(run)]) == 0


@contextmanager
def counting(root: Path):
    """Yield the ledger of the commands run meanwhile with outputs under
    root, as LEDGER counts it, filled in as they run."""
    ledger, row = {}, None

    def add(*counts):
        for i, count in enumerate(counts):
            row[i] += count

    def per_command(main):
        def counted(argv):
            nonlocal row
            out = Path(argv[argv.index("--out") + 1]).relative_to(root).as_posix()
            row = ledger.setdefault(out, [0] * 6)
            return main(argv)
        return counted

    def channel(loop_channel):
        def counted(*args, **kwargs):
            result = loop_channel(*args, **kwargs)
            add(1, len(result.phi.reshape(-1, 16, 16)), result.steps)
            return result
        return counted

    def exact(loop_propagator):
        def counted(*args, **kwargs):
            result = loop_propagator(*args, **kwargs)
            add(0, 0, 0, 0, 1, len(result.matrix.reshape(-1, 4, 4)))
            return result
        return counted

    build = lindblad._ChannelPlan.__init__

    def counted_build(plan, *args):
        add(0, 0, 0, 1)
        build(plan, *args)

    lindblad._channel_plan.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "main", per_command(cli.main))
        patch.setattr(analysis, "loop_channel", channel(analysis.loop_channel))
        patch.setattr(analysis, "loop_propagator", exact(analysis.loop_propagator))
        patch.setattr(lindblad._ChannelPlan, "__init__", counted_build)
        yield ledger


def output_files(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def without_echoes(doc):
    """A config block with its echoed paths dropped, at any depth."""
    if isinstance(doc, dict):
        return {k: without_echoes(v) for k, v in doc.items() if k not in ECHOED}
    return doc


def shift(golden: float, got: float, bound: float, what: str) -> float:
    """|got - golden|, asserted within bound."""
    delta = abs(got - golden)
    assert delta <= bound, f"{what}: {got!r} against {golden!r}, shift {delta:.3g} > {bound:.3g}"
    return delta


def compare_csv(golden: Path, got: Path) -> float:
    """Omega*tau exactly, F within F_TOL."""
    expected, actual = (list(csv.reader(p.open())) for p in (golden, got))
    assert expected[0] == actual[0] and len(expected) == len(actual)
    worst = 0.0
    for (ot, f), (ot_got, f_got) in zip(expected[1:], actual[1:]):
        assert ot == ot_got
        worst = max(worst, shift(float(f), float(f_got), F_TOL, f"{got} F at {ot}"))
    return worst


def compare_rows(golden: list, got: list, bounds: dict, what: str) -> float:
    """Rows of one layout: each key in bounds within its bound, every
    other key exactly."""
    assert len(golden) == len(got)
    worst = 0.0
    for row, row_got in zip(golden, got):
        assert row.keys() == row_got.keys()
        for key, value in row.items():
            if key in bounds:
                bound = bounds[key](row) if callable(bounds[key]) else bounds[key]
                worst = max(worst, shift(value, row_got[key], bound, f"{what} {key} {row}"))
            else:
                assert row_got[key] == value, f"{what} {key}"
    return worst


def table_bounds(doc: dict) -> dict:
    """F* within F_TOL, Omega*tau* within TAU_TOL, and tau* = Omega*tau* /
    Omega within TAU_TOL / Omega, with Omega a row's Omega*tau* / tau*."""
    return {"f_star": F_TOL, "omega_tau_star": TAU_TOL,
            "tau_star": lambda row: TAU_TOL * row["tau_star"] / row["omega_tau_star"]}


def robustness_bounds(table: dict) -> dict:
    """R = 1 - F_adiab / F*, with both fidelities within F_TOL, moves by at
    most F_TOL (1 + F_adiab / F*) / F* = F_TOL (2 - R) / F*, to first
    order (times 1.01 for the second); F* of each coupling comes from the
    golden optimal table."""
    f_star = {row["lambda_sq"]: row["f_star"] for row in table["rows"]}
    return {"robustness": lambda row: 1.01 * F_TOL * (2.0 - row["robustness"])
            / f_star[row["lambda_sq"]]}


def fit_tolerance(fit: dict, rows: int) -> float:
    """The largest shift, in units of a coefficient's own stderr, that data
    within their bounds can cause. A least-squares coefficient moves by
    e_i^T (X^T X)^-1 X^T dy, at most sqrt([(X^T X)^-1]_ii) |dy| by
    Cauchy-Schwarz, and its stderr is s sqrt([(X^T X)^-1]_ii) with
    s = residual_norm / sqrt(dof); so a coefficient moves by at most
    sqrt(rows * dof) * bound / residual_norm stderrs, with bound the data's
    per-row bound (F_TOL for F*, TAU_TOL for Omega*tau*). The stderr and
    the residual norm move by no more, as |d residual| <= |dy|. The fit
    of tau* on few small couplings, whose tau4 and tau6 the data do not
    determine, gets a wide bound this way, as it should."""
    bound = TAU_TOL if fit["model"].startswith("tau") else F_TOL
    dof = rows - len(fit["coefficients"])
    return math.sqrt(rows * dof) * bound / fit["residual_norm"]


def compare_fits(golden: dict, got: dict, rows: int, what: str) -> float:
    """Each fit's coefficients and stderrs within fit_tolerance stderrs,
    its residual norm within the data's whole shift sqrt(rows) * bound,
    its model and fixed intercept exactly; the F*(tau*) slope F2 / tau2
    within what the two linear fits' bounds allow. Returns the largest
    shift in stderr units."""
    assert golden["fits"].keys() == got["fits"].keys()
    worst, moves = 0.0, {}
    for name, fit in golden["fits"].items():
        fit_got = got["fits"][name]
        assert (fit_got["model"], fit_got["intercept"]) == (fit["model"], fit["intercept"])
        k = fit_tolerance(fit, rows)
        data = TAU_TOL if fit["model"].startswith("tau") else F_TOL
        shift(fit["residual_norm"], fit_got["residual_norm"], math.sqrt(rows) * data,
              f"{what} {name} residual_norm")
        for coeff, coeff_got in zip(fit["coefficients"], fit_got["coefficients"], strict=True):
            assert coeff["name"] == coeff_got["name"]
            for key in ("value", "stderr"):
                delta = shift(coeff[key], coeff_got[key], k * coeff["stderr"],
                              f"{what} {name} {coeff['name']} {key}")
                worst = max(worst, delta / coeff["stderr"])
        moves[name] = (fit["coefficients"][0]["value"], k * fit["coefficients"][0]["stderr"])
    # |a'/b' - a/b| <= (|da b| + |a db|) / (|b| (|b| - |db|))
    (f2, df2), (tau2, dtau2) = moves["f_linear"], moves["tau_linear"]
    slope_bound = (abs(df2 * tau2) + abs(f2 * dtau2)) / (abs(tau2) * (abs(tau2) - dtau2))
    shift(golden["f_of_tau_slope"], got["f_of_tau_slope"], slope_bound, f"{what} slope")
    return worst


def golden_doc(golden_root: Path, name: str, table: str) -> dict:
    """The golden file that an output file named name read as table: the
    file of that name in the directory of that name within name's run."""
    table = Path(table)
    return json.loads((golden_root / Path(name).parents[1] / table.parent.name
                       / table.name).read_text())


def compare_file(name: str, golden_root: Path, got_root: Path) -> float:
    """The largest shift of one output file within its bounds: absolute for
    F, Omega*tau* and R, in stderr units for fits; 0.0 where every value
    must match exactly."""
    golden, got = golden_root / name, got_root / name
    if name.endswith(".csv"):
        return compare_csv(golden, got)
    doc, doc_got = (json.loads(p.read_text()) for p in (golden, got))
    if "rows" not in doc and "fits" not in doc:
        # run_config.json and noise.json
        assert without_echoes(doc_got) == without_echoes(doc), name
        return 0.0
    assert without_echoes(doc_got["config"]) == without_echoes(doc["config"]), name
    if "fits" in doc:
        table = golden_doc(golden_root, name, doc["config"]["table"])
        return compare_fits(doc, doc_got, len(table["rows"]), name)
    if name.endswith("robustness.json"):
        table = golden_doc(golden_root, name, doc["config"]["table"])
        return compare_rows(doc["rows"], doc_got["rows"], robustness_bounds(table), name)
    return compare_rows(doc["rows"], doc_got["rows"], table_bounds(doc), name)


@pytest.fixture(scope="module")
def counted_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    with counting(out) as ledger:
        write_outputs(out)
    return out, ledger


@pytest.fixture(scope="module")
def outputs(counted_outputs):
    return counted_outputs[0]


def test_the_same_files_are_written(outputs):
    assert output_files(outputs) == output_files(GOLDEN)


def test_each_command_does_the_work_in_the_ledger(counted_outputs):
    assert {out: tuple(row) for out, row in counted_outputs[1].items()} == LEDGER


def test_the_benchmark_commands_do_the_work_in_their_ledger(tmp_path):
    with counting(tmp_path) as ledger:
        for out, (argv, _) in BENCHMARK_RUNS.items():
            assert cli.main([*argv, "--out", str(tmp_path / out)]) == 0
    assert {out: tuple(row) for out, row in ledger.items()} == {
        out: counts for out, (_, counts) in BENCHMARK_RUNS.items()}


@pytest.mark.parametrize("name", output_files(GOLDEN))
def test_outputs_match_the_golden_files(outputs, name):
    compare_file(name, GOLDEN, outputs)


if __name__ == "__main__":
    for stale in ("quick", "uneven"):
        shutil.rmtree(GOLDEN / stale, ignore_errors=True)
    # relative output paths, so the echoed paths name no machine
    os.chdir(GOLDEN)
    write_outputs(Path("."))
