"""The figure script's call plan, with the CLI stubbed out."""

import importlib.util
import json
from pathlib import Path

import pytest

from tripod_holonomy import cli
from tripod_holonomy.analysis import DEFAULT_FIT_LAMBDAS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figure_data.py"


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("reproduce_figure_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flags_of(argv):
    """--flag value pairs of a CLI call (every flag the script sets has a value)."""
    return dict(zip(argv[1::2], argv[2::2]))


def stub_cli(monkeypatch, fail=None):
    """Record each cli.main call; optimal writes a table with one row per
    coupling, and the command named by fail exits 3."""
    calls = []

    def main(argv):
        calls.append(argv)
        flags = flags_of(argv)
        if argv[0] == "optimal":
            out = Path(flags["--out"])
            out.mkdir(parents=True)
            rows = [{"lambda_sq": float(lam), "f_star": 1.0, "omega_tau_star": 18.0}
                    for lam in flags["--lambda-sq"].split(",")]
            (out / "optimal_points.json").write_text(json.dumps({"rows": rows}))
        return 3 if argv[0] == fail else 0

    monkeypatch.setattr(cli, "main", main)
    return calls


def test_call_plan(script, monkeypatch, tmp_path):
    calls = stub_cli(monkeypatch)
    assert script.main(["--out", str(tmp_path), "--quick", "--calibrate"]) == 0
    assert [c[0] for c in calls] == [
        "ideal-sweep", "optimal", "noisy-sweep", "robustness", "fit", "fit"
    ]
    ideal, optimal, noisy, rob, fit_all, fit_small = map(flags_of, calls)
    assert ideal["--grid"] == noisy["--grid"] == "0.25:60.25:61"

    # One calibration, in optimal; the others reuse the noise table it wrote.
    assert [c for c in calls if "--calibrate-f2" in c] == [calls[1]]
    assert optimal["--calibrate-f2"] == "6.34"
    assert noisy["--noise-file"] == str(tmp_path / "optimal" / "noise.json")
    large = [float(x) for x in cli.DEFAULT_LAMBDA_LIST[1:]]
    fit_lams = [float(x) for x in DEFAULT_FIT_LAMBDAS]
    assert [float(x) for x in optimal["--lambda-sq"].split(",")] == [0.0, *fit_lams, *large]

    # robustness and fit_all read the whole optimal table, fit_small its
    # small-coupling rows.
    table = str(tmp_path / "optimal" / "optimal_points.json")
    assert rob["--table"] == fit_all["--table"] == table
    small = json.loads(Path(fit_small["--table"]).read_text())["rows"]
    assert [r["lambda_sq"] for r in small] == fit_lams
    assert fit_all["--out"] != fit_small["--out"]


def test_without_calibration_nothing_calibrates(script, monkeypatch, tmp_path):
    calls = stub_cli(monkeypatch)
    assert script.main(["--out", str(tmp_path)]) == 0
    assert not any("--calibrate-f2" in c for c in calls)
    assert flags_of(calls[0])["--grid"] == "0.25:60.25:241"


def test_first_failure_stops_and_passes_its_code(script, monkeypatch, tmp_path):
    calls = stub_cli(monkeypatch, fail="noisy-sweep")
    assert script.main(["--out", str(tmp_path)]) == 3
    assert [c[0] for c in calls] == ["ideal-sweep", "optimal", "noisy-sweep"]
