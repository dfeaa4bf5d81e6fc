import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripod_holonomy
from tripod_holonomy import analysis, lindblad
from tripod_holonomy.cli import DEFAULT_LAMBDA_LIST, build_parser, main
from tripod_holonomy.errors import StepCountTooSmall
from tripod_holonomy.lindblad import DEFAULT_GAMMA0, high_temperature_noise
from tripod_holonomy.loops import optimal_time, wedge_loop, with_total_time

from conftest import GAUGE_JUMP_LOOP_DOC

OMEGA_TAU_1 = 18.251004041881252


def loop_doc(n=2, omega=1.0):
    """A loop file's content, as a dict."""
    return json.loads(json.dumps(dataclasses.asdict(wedge_loop(n, omega, 1.0))))


def flat_noise(gamma0):
    """A noise file's content: the flat rate table gamma0, as a dict."""
    return {"lambda_sq": 0.0, "gamma": {str(k): gamma0 for k in (0, 1, -1, 2, -2)}}


def with_files(argv, tmp_path):
    """argv with each dict in it written to a JSON file under tmp_path and
    replaced by that file's path."""
    def path_of(i, doc):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return [path_of(i, arg) if isinstance(arg, dict) else arg for i, arg in enumerate(argv)]


def non_contiguous_loop_doc():
    doc = loop_doc()
    doc["arcs"][1]["start_angle"] = 0.1
    return doc


def typed_loop_doc(arc_key, value):
    """The order-2 wedge loop file with value under its first arc's key."""
    doc = loop_doc()
    doc["arcs"][0][arc_key] = value
    return doc


def off_pole_loop_doc():
    """The order-2 wedge loop started at its second arc, on the equator."""
    doc = loop_doc()
    doc["arcs"] = doc["arcs"][1:] + doc["arcs"][:1]
    return doc


def opening_loop_doc(opening=0.5):
    """The standard loop with an equatorial opening that is not pi/(2n)."""
    doc = loop_doc(n=1)
    doc["arcs"][1]["end_angle"] = doc["arcs"][2]["fixed_angle"] = opening
    return doc


def synthetic_rows(n=1):
    """Optimal-table rows of the order-n wedge loop with F2 = 6.34 and
    tau2 = 59.40."""
    return [
        {
            "lambda_sq": float(lam),
            "f_star": float(1 - 6.34 * lam),
            "omega_tau_star": float(optimal_time(1, n, 1.0) - 59.40 * lam),
        }
        for lam in np.linspace(1e-4, 1e-3, 7)
    ]


def write_synthetic_table(path, n=1, rows=None):
    """An optimal table with the config block optimal writes."""
    loop = "standard" if n == 1 else f"wedge:{n}"
    rows = synthetic_rows(n) if rows is None else rows
    path.write_text(json.dumps({"config": {"loop": loop, "loop_file": None}, "rows": rows}))


# A row value of each kind the table reader rejects.
BAD_ROW_VALUES = [
    ("f_star", float("nan")), ("f_star", 0.0), ("lambda_sq", -1e-4),
    ("lambda_sq", float("inf")), ("omega_tau_star", 0.0), ("omega_tau_star", float("nan")),
]
BAD_ROW_IDS = ["f-star-nan", "f-star-zero", "lambda-sq-negative", "lambda-sq-inf",
               "omega-tau-star-zero", "omega-tau-star-nan"]

# The config block optimal writes for the standard loop, less the keys no
# table command reads, and the noise.json it writes beside the table for the
# flat table.
TABLE_CONFIG = {"loop": "standard", "loop_file": None, "steps": None}
FLAT_NOISE = flat_noise(0.5)


def bad_rows(key, value):
    """Synthetic rows whose last row holds value under key."""
    rows = synthetic_rows()
    rows[-1][key] = value
    return rows


def no_plan(*args):
    raise AssertionError("a channel plan was built")


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


class TestHolonomyCommand:
    def test_prints_not_matrix(self, capsys):
        code, out = run(["holonomy", "--loop", "standard"], capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["dim"] == 2
        entries = np.array(doc["entries"]).reshape(2, 2, 2)
        matrix = entries[..., 0] + 1j * entries[..., 1]
        np.testing.assert_allclose(matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_wedge_loop_flag(self, capsys):
        code, out = run(["holonomy", "--loop", "wedge:2"], capsys)
        assert code == 0
        doc = json.loads(out.out)
        c = float(np.cos(np.pi / 4))
        np.testing.assert_allclose(
            np.array(doc["entries"]).reshape(2, 2, 2)[..., 0],
            [[c, c], [-c, c]],
            atol=1e-12,
        )

    def test_bad_loop_kind(self, capsys):
        code, out = run(["holonomy", "--loop", "pentagon"], capsys)
        assert code == 2
        assert "pentagon" in out.err

    def test_loop_file_with_rounded_angles(self, tmp_path, capsys):
        doc = loop_doc()
        for arc in doc["arcs"]:
            for key in ("fixed_angle", "start_angle", "end_angle"):
                arc[key] = round(arc[key], 10)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        code, out = run(["holonomy", "--loop-file", str(path)], capsys)
        assert code == 0
        c = float(np.cos(np.pi / 4))
        np.testing.assert_allclose(
            np.array(json.loads(out.out)["entries"]).reshape(2, 2, 2)[..., 0],
            [[c, c], [-c, c]],
            atol=1e-9,
        )

    @pytest.mark.parametrize("doc, message", [
        (non_contiguous_loop_doc(), "not contiguous"),
        ({"omega_scale": 1, "arcs": 5}, "TypeError"),
        ([1, 2], "TypeError"),
        ({**loop_doc(), "arcs": [{**loop_doc()["arcs"][0], "duration": 0.0}]}, "positive"),
        ({"omega_scale": 1, "arcs": []}, "at least one arc"),
        (off_pole_loop_doc(), "pole"),
        (GAUGE_JUMP_LOOP_DOC, "gauge frame jumps"),
        ({**loop_doc(), "omega_scale": "1.0"}, "omega_scale must be a number"),
        (typed_loop_doc("duration", True), "duration must be a number"),
        (typed_loop_doc("end_angle", "1.5707963267948966"), "end_angle must be a number"),
    ], ids=["non-contiguous", "arcs-not-a-list", "bare-list", "zero-duration", "no-arcs",
            "off-pole", "interior-gauge-jump", "omega-scale-string", "duration-bool",
            "angle-string"])
    def test_bad_loop_file_is_config_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        code, out = run(["holonomy", "--loop-file", str(path)], capsys)
        assert code == 2
        assert message in out.err

    @pytest.mark.parametrize("command", ["optimal", "fit"])
    @pytest.mark.parametrize("doc, message", [
        (opening_loop_doc(), "is not pi/(2n)"),
        (GAUGE_JUMP_LOOP_DOC, "gauge frame jumps"),
    ], ids=["opening-not-pi-over-2n", "interior-gauge-jump"])
    def test_bad_loop_file_of_optimal_and_fit_is_config_error(
        self, tmp_path, capsys, command, doc, message
    ):
        # holonomy accepts any opening; the peak search and the fit need pi/(2n)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        if command == "optimal":
            argv = ["optimal", "--loop-file", str(path), "--lambda-sq", "0"]
        else:
            table = tmp_path / "table.json"
            table.write_text(json.dumps({"config": {"loop": "standard", "loop_file": str(path)},
                                         "rows": synthetic_rows()}))
            argv = ["fit", "--table", str(table)]
        code, out = run([*argv, "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert message in out.err
        assert not (tmp_path / "x").exists()


class TestSweepCommands:
    def test_ideal_sweep_single_point(self, tmp_path):
        # the bytes the former --omega-tau 18.25 flag wrote
        out = tmp_path / "run"
        assert main(["ideal-sweep", "--grid", "18.25:18.25:1", "--out", str(out)]) == 0
        assert (out / "sweep_lambda2_0.csv").read_bytes() == (
            b"omega_tau,mean_fidelity\n18.25,0.999999996718\n"
        )

    @pytest.mark.parametrize("grid", ["1e-6:1e-3:4", "240:240:1"],
                             ids=["near-zero-times", "omega-tau-240"])
    def test_ideal_sweep_at_the_grid_edges_writes_fidelities_in_range(self, tmp_path, grid):
        out = tmp_path / "run"
        assert main(["ideal-sweep", "--grid", grid, "--out", str(out)]) == 0
        table = np.loadtxt(out / "sweep_lambda2_0.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(table) == int(grid.split(":")[-1])
        assert np.all((table[:, 1] >= 0.0) & (table[:, 1] <= 1.0))

    def test_ideal_sweep_rejects_nonzero_lambda(self, tmp_path):
        code = main([
            "ideal-sweep", "--grid", "18:18:1", "--lambda-sq", "0.01",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_missing_grid_is_config_error(self, tmp_path):
        assert main(["ideal-sweep", "--out", str(tmp_path / "x")]) == 2

    def test_invalid_grid_is_config_error(self, tmp_path):
        assert main(["ideal-sweep", "--grid", "10:20:0", "--out", str(tmp_path / "x")]) == 2

    def test_noisy_zero_lambda_matches_ideal(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--grid", "17:19:3"]
        assert main(["ideal-sweep", *args, "--out", str(a)]) == 0
        assert main(["noisy-sweep", *args, "--lambda-sq", "0", "--out", str(b)]) == 0
        assert (a / "sweep_lambda2_0.csv").read_bytes() == (b / "sweep_lambda2_0.csv").read_bytes()

    def test_noisy_sweep_one_file_per_coupling(self, tmp_path):
        out = tmp_path / "n"
        code = main([
            "noisy-sweep", "--grid", "18:19:2", "--lambda-sq", "0,0.01",
            "--steps", "600", "--out", str(out),
        ])
        assert code == 0
        assert (out / "sweep_lambda2_0.csv").exists()
        assert (out / "sweep_lambda2_0.01.csv").exists()
        ideal = np.loadtxt(out / "sweep_lambda2_0.csv", delimiter=",", skiprows=1)
        noisy = np.loadtxt(out / "sweep_lambda2_0.01.csv", delimiter=",", skiprows=1)
        assert np.all(noisy[:, 1] <= ideal[:, 1])

    @pytest.mark.parametrize("doc, message", [
        (None, "nowhere/missing.json"),
        ({"lambda_sq": 0, "gamma": 5}, "AttributeError"),
        ({"lambda_sq": 0, "gamma": {"0": float("nan")}}, "decay rates must be finite"),
        ({"lambda_sq": 0, "lamb_shift": {"1": float("inf")}}, "Lamb shifts must be finite"),
        ({"lambda_sq": True, "gamma": {"0": 0.5}}, "lambda_sq must be a number"),
        ({"lambda_sq": 0, "gamma": {"0": "0.5", "1": "1e-1"}}, "gamma[0] must be a number"),
        ({"lambda_sq": 0, "lamb_shift": {"1": False}}, "lamb_shift[1] must be a number"),
        ({"lambda_sq": 0.05, "gamma": {"0": 0.5}}, "the couplings come from lambda_sq"),
    ], ids=["missing", "gamma-not-a-table", "nan-rate", "inf-shift", "lambda-sq-bool",
            "rate-string", "shift-bool", "lambda-sq-not-zero"])
    def test_bad_noise_file_is_config_error(self, tmp_path, capsys, doc, message):
        path = "nowhere/missing.json"
        if doc is not None:
            path = tmp_path / "noise.json"
            path.write_text(json.dumps(doc))
        code, out = run([
            "noisy-sweep", "--grid", "18:19:2", "--noise-file", str(path),
            "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 2
        assert message in out.err and len(out.err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_omega_and_the_flat_rate_act_only_through_lambda_sq(self, tmp_path):
        # F reads Omega, a flat rate gamma0 and lambda^2 only as lambda^2 gamma0 / Omega,
        # so a loop file or a noise file sets either one through lambda^2
        def curve(out, *flags):
            argv = ["noisy-sweep", "--grid", "0.25:60.25:13", *flags, "--out", str(tmp_path / out)]
            assert main(with_files(argv, tmp_path)) == 0
            (path,) = (tmp_path / out).glob("*.csv")
            return path.read_text()

        default = curve("default", "--lambda-sq", "0.05")
        assert curve("gamma0", "--lambda-sq", "0.1", "--noise-file", flat_noise(0.25)) == default
        omega = curve("omega", "--lambda-sq", "0.065", "--loop-file", loop_doc(1, 1.3))
        expected, got = (np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
                         for text in (default, omega))
        assert np.array_equal(got[:, 0], expected[:, 0])
        assert np.abs(got[:, 1] - expected[:, 1]).max() <= 1e-12

    def test_zero_rate_noise_file_gives_noiseless_fidelity(self, tmp_path):
        # No rate and no Lamb shift: the evolution is unitary at any
        # coupling, so the exact propagator is used and the bytes match,
        # also those of ideal-sweep (one exact engine).
        noise = tmp_path / "silent.json"
        noise.write_text(json.dumps({"lambda_sq": 0.0, "gamma": {"0": 0.0, "1": 0.0}}))
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        args = ["noisy-sweep", "--grid", "10:30:5", "--noise-file", str(noise)]
        assert main([*args, "--lambda-sq", "0.01", "--out", str(a)]) == 0
        assert main([*args, "--lambda-sq", "0", "--out", str(b)]) == 0
        assert main(["ideal-sweep", "--grid", "10:30:5", "--out", str(c)]) == 0
        noisy = (a / "sweep_lambda2_0.01.csv").read_bytes()
        assert noisy == (b / "sweep_lambda2_0.csv").read_bytes()
        assert noisy == (c / "sweep_lambda2_0.csv").read_bytes()

    def test_under_resolved_run_exits_3(self, tmp_path):
        code = main([
            "noisy-sweep", "--grid", "2000:2000:1", "--lambda-sq", "0.05",
            "--steps", "3", "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_steps_above_the_ceiling_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, streams = run([
            "noisy-sweep", "--grid", "18.25:18.25:1", "--lambda-sq", "0.05",
            "--steps", "50001", "--out", str(out),
        ], capsys)
        assert code == 2
        assert "steps must be an integer in [3, 50000], got 50001" in streams.err
        assert not out.exists()

    def test_default_steps_above_the_ceiling_is_config_error(self, tmp_path, capsys,
                                                              monkeypatch):
        # Omega*tau 1e6 would take 2,400,000 default steps, about 14 GB of
        # plan: the run stops before any plan is built
        def no_plan(*args):
            raise AssertionError("a channel plan was built")

        monkeypatch.setattr(lindblad, "_loop_plan", no_plan)
        out = tmp_path / "x"
        code, streams = run([
            "noisy-sweep", "--grid", "100:1e6:3", "--lambda-sq", "0,0.05", "--out", str(out),
        ], capsys)
        assert code == 2
        assert "Omega*tau 1e+06 takes 2400000 default steps, above the ceiling of 50000" in (
            streams.err)
        assert not out.exists()

    def test_overflowed_run_reports_only_the_exit_3_message(self, tmp_path, capsys):
        # steps this long would overflow Phi; the Magnus gate rejects them
        # first, and numpy must not warn on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, streams = run([
                "noisy-sweep", "--grid", "2000:2000:1", "--lambda-sq", "0.05",
                "--steps", "60", "--out", str(tmp_path / "x"),
            ], capsys)
        assert code == 3
        assert streams.err == (
            "numerical validation failed: "
            "Magnus step h*|A|_F = 133.4 not below pi; increase steps\n"
        )

    def test_overflowed_loop_time_exits_3_without_a_traceback(self, tmp_path, capsys):
        # past Omega*tau ~ 1e154 the closed form's a^2 overflows; the NaN
        # propagator fails mean_fidelity's finite check, and numpy must not warn
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, streams = run(["ideal-sweep", "--grid", "1e300:1e300:1", "--out", str(out)],
                                capsys)
        assert code == 3
        assert streams.err == (
            "numerical validation failed: mean fidelity nan is not finite: a numerical fault\n"
        )
        assert not out.exists()

    def test_under_resolved_standard_loop_exits_3(self, tmp_path, capsys):
        # 4 steps per arc put h*|A|_F at 6.28, beyond the pi bound within
        # which the Magnus series is known to converge; Phi stays finite and
        # trace-preserving, so only the Magnus gate can reject the run
        code, streams = run([
            "noisy-sweep", "--grid", "18.25:18.25:1", "--lambda-sq", "0.05",
            "--steps", "12", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 3
        assert "Magnus step" in streams.err
        assert not (tmp_path / "x" / "sweep_lambda2_0.05.csv").exists()

    def test_out_of_range_fidelity_exits_3(self, tmp_path, capsys, monkeypatch):
        # a channel scaled by 1.5^2 gives a fidelity above 1
        def scaled_channel(run, noise, steps=None, omega_tau=None):
            channel = lindblad.loop_channel(run, noise, steps, omega_tau)
            return dataclasses.replace(channel, phi=1.5 ** 2 * channel.phi)

        monkeypatch.setattr(analysis, "loop_channel", scaled_channel)
        code, out = run([
            "noisy-sweep", "--grid", "18.25:18.25:1", "--lambda-sq", "0.05",
            "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 3
        assert "outside [0, 1]" in out.err

    def test_nan_channel_fails_the_range_check(self, tmp_path, capsys, monkeypatch):
        # the range check is the only gate after integration: a non-finite
        # Phi must stop both the library call and the command, and must not
        # be blamed on the step count, which the Magnus gate has passed
        monkeypatch.setattr(lindblad._ChannelPlan, "propagate",
                            lambda plan, loop, lambda_sq, scales:
                            np.full((len(scales), 16, 16), np.nan))
        loop = wedge_loop(1, 1.0, OMEGA_TAU_1)
        with pytest.raises(StepCountTooSmall, match="not finite"):
            analysis.mean_fidelity(loop, high_temperature_noise(0.05))
        code, out = run([
            "noisy-sweep", "--grid", "18.25:18.25:1", "--lambda-sq", "0.05",
            "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 3
        assert out.err == (
            "numerical validation failed: mean fidelity nan is not finite: a numerical fault\n"
        )
        assert "increase steps" not in out.err


HUGE_WEDGE = "wedge:1" + "0" * 400


@pytest.mark.parametrize("argv, expected", [
    # linspace repeats a point: STOP is within a few floats of START
    (["ideal-sweep", "--grid", "1:1.0000000000000002:3"], 2),
    (["noisy-sweep", "--grid", "5:5.000000000000001:10", "--lambda-sq", "0.05"], 2),
    # lambda^2 D reads h |A|_F = 2.004e+299, far past what the Magnus gate takes
    (["noisy-sweep", "--grid", "18.25:18.25:1", "--lambda-sq", "1e300"], 3),
    # 2.4 Omega*tau default steps overflow to inf, above the step ceiling
    (["noisy-sweep", "--grid", "1e308:1e308:1", "--lambda-sq", "0.05"], 2),
    # the opening pi/(2N) of a wedge order past 1.57e9 is within ANGLE_TOL of 0
    (["holonomy", "--loop", HUGE_WEDGE], 2),
    (["ideal-sweep", "--loop", HUGE_WEDGE, "--grid", "1:2:3"], 2),
    (["optimal", "--loop", "wedge:2000000000", "--lambda-sq", "0"], 2),
    # Omega*tau*_1 overflows to inf or underflows to 0: the search window is empty
    (["optimal", "--loop-file", loop_doc(1, 1e-308), "--lambda-sq", "0.001"], 3),
    (["optimal", "--loop-file", loop_doc(1, 1e308), "--lambda-sq", "0"], 3),
], ids=["ideal-repeated-grid", "noisy-repeated-grid", "huge-lambda-sq", "huge-default-steps",
        "holonomy-huge-wedge", "sweep-huge-wedge", "optimal-wedge-past-angle-tol",
        "omega-1e-308", "omega-1e308"])
def test_extreme_input_exits_with_one_line(tmp_path, capsys, argv, expected):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = with_files(argv if argv[0] == "holonomy" else [*argv, "--out", str(out)], tmp_path)
        code, streams = run(argv, capsys)
    assert code == expected
    assert len(streams.err.splitlines()) == 1 and "Traceback" not in streams.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # Omega*tau / Omega overflows in loop_times, before any step-count or window guard
    ["noisy-sweep", "--grid", "1e308:1e308:1", "--lambda-sq", "0.05",
     "--loop-file", loop_doc(1, 0.5)],
    ["ideal-sweep", "--grid", "1e308:1e308:1", "--loop-file", loop_doc(1, 0.5)],
    ["noisy-sweep", "--grid", "0.5:60.5:2", "--lambda-sq", "1e-300",
     "--loop-file", loop_doc(1, 5e-324)],
    # Omega*tau*_1 overflows in optimal_time, before the empty-window guard
    ["optimal", "--loop-file", loop_doc(2, 2.2e-308), "--lambda-sq", "0.05",
     "--noise-file", flat_noise(0.0)],
], ids=["noisy-loop-time", "ideal-loop-time", "noisy-loop-time-subnormal-omega",
        "optimal-revival-time"])
def test_overflowing_time_exits_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, streams = run(with_files([*argv, "--out", str(out)], tmp_path), capsys)
    assert code == 3
    assert len(streams.err.splitlines()) == 1 and "Traceback" not in streams.err
    assert "overflows" in streams.err or "empty search window" in streams.err
    assert not out.exists()


@pytest.mark.parametrize("argv, expected", [
    # the Magnus gate's h |A|_F from a duration near 1e301, past what its square holds
    (["optimal", "--loop-file", loop_doc(1, 1e-300), "--lambda-sq", "0.05"], 3),
    # lambda^2 1e155 with rates near 1e-300: lambda^4 overflows, ||D||^2 underflows
    (["optimal", "--loop-file", loop_doc(1, 18.25), "--lambda-sq", "1e155",
      "--noise-file", flat_noise(1e-300)], 0),
    # a duration near 1e-301 against ||L_E|| near 4e300: the first squares to 0, the second to inf
    (["noisy-sweep", "--loop-file", loop_doc(1, 1e300), "--grid", "18.25:18.25:1",
      "--lambda-sq", "0.05"], 0),
    # rates of 1e300: the plan holds D over a power of two, and the gate reads lambda^2 D
    (["noisy-sweep", "--grid", "18.25:18.25:1", "--lambda-sq", "1e-12",
      "--noise-file", flat_noise(1e300)], 3),
    # ||L_E|| = 4 Omega overflows: refused before the plan is built
    (["noisy-sweep", "--loop-file", loop_doc(1, 1e308), "--grid", "18.25:18.25:1",
      "--lambda-sq", "0.05"], 2),
], ids=["omega-1e-300", "lambda-sq-1e155-gamma0-1e-300", "noisy-omega-1e300", "gamma0-1e300",
        "noisy-omega-1e308"])
def test_extreme_channel_input_exits_with_one_line(tmp_path, capsys, argv, expected):
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, streams = run(with_files([*argv, "--out", str(out)], tmp_path), capsys)
    assert code == expected
    assert len(streams.err.splitlines()) == (1 if code else 0) and "Traceback" not in streams.err
    assert out.exists() == (code == 0)


# A JSON integer has no size limit; this one is past the float range.
BIG_INT = 10**400


@pytest.mark.parametrize("argv, doc", [
    (["noisy-sweep", "--config"], {"grid": [1, 2, 3], "lambda_sq": [BIG_INT]}),
    (["ideal-sweep", "--grid=1:2:3", "--loop-file"], {**loop_doc(), "omega_scale": BIG_INT}),
    (["noisy-sweep", "--config"], {"grid": [1, BIG_INT, 3]}),
    # numpy cannot size a grid of that many points
    (["ideal-sweep", f"--grid=1:2:{BIG_INT}"], None),
    # counts numpy cannot index: its linspace fails before it allocates
    (["ideal-sweep", f"--grid=1:2:{2**63}"], None),
    (["ideal-sweep", f"--grid=1:2:{2**63 - 1}"], None),
    (["noisy-sweep", "--config"], {"grid": [1, 2, 2**63 - 1]}),
    (["ideal-sweep", "--grid=1:2:3", "--loop-file"], typed_loop_doc("duration", BIG_INT)),
    (["noisy-sweep", "--grid=1:2:3", "--noise-file"], {"lambda_sq": 0.0, "gamma": {"0": BIG_INT}}),
], ids=["config-lambda-sq", "loop-file-omega", "config-grid-stop", "grid-points",
        "grid-points-2-63", "grid-points-2-63-less-1", "config-grid-points-2-63-less-1",
        "loop-file-duration", "noise-file-gamma"])
def test_number_past_float_range_exits_with_one_line(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, str(path)]
    out = tmp_path / "x"
    code, streams = run([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert len(streams.err.splitlines()) == 1 and "Traceback" not in streams.err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["out-is-a-file", "out-under-a-file"])
def test_out_that_cannot_be_a_directory_exits_with_one_line(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / sub if sub else afile
    code, streams = run(["ideal-sweep", "--grid", "1:2:3", "--out", str(out)], capsys)
    assert code == 2
    assert len(streams.err.splitlines()) == 1 and "Traceback" not in streams.err
    assert str(out) in streams.err
    assert afile.read_text() == "kept\n"


# IEEE extremes and ordinary values for Omega, the grid ends and the flat rate gamma0
EXTREMES = [0.0, 5e-324, 2.2e-308, 1e-300, 1e-12, 0.5, 1.0, 1.3, 18.25, 60.5, 1e4, 1e154, 1e155,
            1e300, 1.7976931348623157e308, -1.0]
# the flags each command reads, less --config and --calibrate-f2; the loop
# file holds the drawn loop at the drawn Omega, the noise file gamma0
COMMAND_FLAGS = {
    "ideal-sweep": ("loop-file", "grid"),
    "noisy-sweep": ("loop-file", "grid", "lambda-sq", "noise-file", "steps"),
    "optimal": ("loop-file", "lambda-sq", "noise-file", "steps"),
    "holonomy": ("loop",),
}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(sorted(COMMAND_FLAGS)),
    values=st.fixed_dictionaries({
        "loop": st.sampled_from(["standard", "wedge:2", "wedge:3"]),
        "omega": st.sampled_from(EXTREMES),
        "grid": st.tuples(st.sampled_from(EXTREMES), st.sampled_from(EXTREMES),
                          st.sampled_from([1, 2, 3])),
        "lambda-sq": st.sampled_from([0.0, 1e-300, 0.05, 1e154, 1e155, 1.7976931348623157e308,
                                      -1.0]),
        "gamma0": st.sampled_from(EXTREMES),
        "steps": st.sampled_from([None, 3, 5, 144, 300]),
    }),
)
# ||L_E|| = 4 Omega overflows at the largest float: the channel plan's Omega guard
@example(command="noisy-sweep", values={
    "loop": "standard", "omega": 1.7976931348623157e308, "grid": (5e-324, 5e-324, 1),
    "lambda-sq": 1e-300, "gamma0": 5e-324, "steps": None})
def test_extreme_flags_exit_with_one_line(command, values):
    # every value flag as --flag=value: argparse reads "--grid -1.0:0.0:1" as a missing value
    values = {**values, "grid": ":".join(map(repr, values["grid"]))}
    order = int(values["loop"].partition(":")[2] or 1)
    loop = {**loop_doc(n=order), "omega_scale": values["omega"]}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for flag, doc in (("loop-file", loop), ("noise-file", flat_noise(values["gamma0"]))):
            values[flag] = Path(tmp) / f"{flag}.json"
            values[flag].write_text(json.dumps(doc))
        argv = [command] + [f"--{flag}={values[flag]}" for flag in COMMAND_FLAGS[command]
                            if values[flag] is not None]
        out, err = Path(tmp) / "x", io.StringIO()
        if command != "holonomy":
            argv.append(f"--out={out}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), argv
        assert len(err.getvalue().splitlines()) == (1 if code else 0), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (code == 0 and command != "holonomy"), argv


def test_ideal_sweep_at_omega_1e308_is_unchanged(tmp_path, capsys):
    # the channel plan's bound on Omega does not reach the exact engine
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["ideal-sweep", "--loop-file", loop_doc(1, 1e308), "--grid", "18.25:18.25:1",
                "--out", str(out)]
        code, streams = run(with_files(argv, tmp_path), capsys)
    assert code == 0 and streams.err == ""
    csv = (out / "sweep_lambda2_0.csv").read_text()
    assert csv == "omega_tau,mean_fidelity\n18.25,0.999999996718\n"


class TestOptimalAndFit:
    def test_optimal_single_lambda(self, tmp_path):
        out = tmp_path / "opt"
        code = main([
            "optimal", "--lambda-sq", "0", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "optimal_points.json").read_text())
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert row["lambda_sq"] == 0.0
        assert abs(row["omega_tau_star"] - OMEGA_TAU_1) <= 1e-3
        assert row["f_star"] >= 1.0 - 1e-6
        assert set(doc["config"]) == {
            "loop", "loop_file", "out", "lambda_sq", "noise_file", "steps", "calibrate_f2",
            "provenance",
        }

    def test_optimal_row_does_not_depend_on_the_rows_before_it(self, tmp_path):
        rows = []
        for lambda_sq in ("1e-4,1e-3", "1e-3"):
            out = tmp_path / lambda_sq
            assert main(["optimal", "--lambda-sq", lambda_sq, "--out", str(out)]) == 0
            rows.append(json.loads((out / "optimal_points.json").read_text())["rows"][-1])
        keys = ("lambda_sq", "f_star", "omega_tau_star", "bracket")
        assert [rows[0][k] for k in keys] == [rows[1][k] for k in keys]

    def test_optimal_takes_omega_from_loop_file(self, tmp_path):
        # The loop file's omega_scale is Omega.
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps(loop_doc(n=1, omega=2.0)))
        out = tmp_path / "opt"
        assert main(["optimal", "--loop-file", str(loop), "--lambda-sq", "0",
                     "--out", str(out)]) == 0
        row = json.loads((out / "optimal_points.json").read_text())["rows"][0]
        assert abs(row["omega_tau_star"] - OMEGA_TAU_1) <= 1e-3
        assert row["tau_star"] == pytest.approx(row["omega_tau_star"] / 2.0, rel=1e-12)

    def test_fit_recovers_synthetic_reference_coefficients(self, tmp_path):
        table = tmp_path / "table.json"
        write_synthetic_table(table)
        out = tmp_path / "fit"
        code = main(["fit", "--table", str(table), "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "fit_results.json").read_text())
        f2 = doc["fits"]["f_linear"]["coefficients"][0]
        assert f2["name"] == "F2"
        assert abs(f2["value"] - 6.34) <= 1e-8
        tau2 = doc["fits"]["tau_linear"]["coefficients"][0]
        assert abs(tau2["value"] - 59.40) <= 1e-8
        assert doc["f_of_tau_slope"] == pytest.approx(6.34 / 59.40, abs=1e-9)

    def test_fit_takes_the_loop_from_the_table(self, tmp_path):
        table = tmp_path / "table.json"
        write_synthetic_table(table, n=2)
        out = tmp_path / "fit"
        assert main(["fit", "--table", str(table), "--out", str(out)]) == 0
        fits = json.loads((out / "fit_results.json").read_text())["fits"]
        assert fits["tau_linear"]["intercept"] == optimal_time(1, 2, 1.0)
        assert abs(fits["tau_linear"]["coefficients"][0]["value"] - 59.40) <= 1e-8

    def test_fit_underdetermined_table(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        write_synthetic_table(table, rows=[
            {"lambda_sq": 1e-4, "f_star": 0.999, "omega_tau_star": 18.25}
        ])
        code, out = run(["fit", "--table", str(table), "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "needs at least 2 points" in out.err

    def test_fit_on_an_all_zero_coupling_table_exits_2(self, tmp_path, capsys):
        # optimal rejects a repeated coupling, so the second zero row is added by hand
        assert run(["optimal", "--lambda-sq", "0", "--out", str(tmp_path / "opt")]) == 0
        table = tmp_path / "opt" / "optimal_points.json"
        doc = json.loads(table.read_text())
        table.write_text(json.dumps({**doc, "rows": doc["rows"] * 2}))
        code, out = run(["fit", "--table", str(table), "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "f_linear: lambda^2 values fix 0 of 1 coefficients" in out.err
        assert not (tmp_path / "x").exists()

    def test_fit_requires_table(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_file_is_config_error(self, tmp_path, capsys):
        # a directory where a loop, noise, config or table file should be
        for argv in (["holonomy", "--loop-file"], ["noisy-sweep", "--grid", "18:18:1",
                     "--noise-file"], ["ideal-sweep", "--config"], ["fit", "--table"]):
            code, streams = run([*argv, str(tmp_path)], capsys)
            assert code == 2
            assert "cannot read" in streams.err

    @pytest.mark.parametrize("text, message", [
        ('[{"lambda_sq": 1e-4, "f_star": 0.999, "omega_tau_star": 18.25}]', "JSON object"),
        ('{"rows": [', "not valid JSON"),
        ('{"rows": [{"lambda_sq": 1e-4, "omega_tau_star": 18.25}]}', "f_star"),
        (json.dumps({"rows": synthetic_rows()}), '"config"'),
        (json.dumps({"rows": synthetic_rows(), "config": {"loop": "standard"}}), "loop_file"),
        (json.dumps({"rows": synthetic_rows(), "config": {"loop": 2, "loop_file": None}}),
         "loop must be a string"),
        (json.dumps({"rows": synthetic_rows(), "config": {"loop": "wedge:0", "loop_file": None}}),
         "wedge order"),
        # a table written when optimal still read Omega
        (json.dumps({"rows": synthetic_rows(), "config": {"loop": "standard", "loop_file": None,
                                                          "omega": 1.3}}), "does not read"),
    ] + [
        (json.dumps({"rows": bad_rows(key, value), "config": {"loop": "standard",
                                                              "loop_file": None}}), key)
        for key, value in BAD_ROW_VALUES
    ], ids=["bare-list", "invalid-json", "row-without-f-star", "no-config",
            "config-without-loop-file", "loop-not-a-string", "bad-wedge-order",
            "config-omega-key", *BAD_ROW_IDS])
    def test_fit_bad_table_is_config_error(self, tmp_path, capsys, text, message):
        table = tmp_path / "table.json"
        table.write_text(text)
        out = tmp_path / "x"
        code, streams = run(["fit", "--table", str(table), "--out", str(out)], capsys)
        assert code == 2
        assert message in streams.err
        assert not out.exists()

    def test_robustness_zero_coupling(self, tmp_path):
        opt, out = tmp_path / "opt", tmp_path / "rob"
        assert main(["optimal", "--lambda-sq", "0", "--out", str(opt)]) == 0
        code = main([
            "robustness", "--table", str(opt / "optimal_points.json"), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "robustness.json").read_text())
        assert doc["rows"][0]["lambda_sq"] == 0.0
        assert abs(doc["rows"][0]["robustness"]) <= 1e-6

    def test_robustness_reads_the_table_and_searches_no_peak(self, tmp_path, monkeypatch):
        opt = tmp_path / "opt"
        bath = tmp_path / "bath.json"
        bath.write_text(json.dumps(flat_noise(0.3)))
        assert main(["optimal", "--lambda-sq", "0,0.005", "--noise-file", str(bath),
                     "--out", str(opt)]) == 0
        calls = {"find_optimal_point": 0, "loop_channel": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(analysis, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(analysis, name, counting)
        out = tmp_path / "rob"
        assert main(["robustness", "--table", str(opt / "optimal_points.json"),
                     "--out", str(out)]) == 0
        assert calls == {"find_optimal_point": 0, "loop_channel": 1}
        monkeypatch.undo()

        # R of the definition that searched the peak itself
        loop = wedge_loop(1, 1.0, 1.0)
        tau3 = optimal_time(3, 1, 1.0)
        rows = json.loads((out / "robustness.json").read_text())["rows"]
        assert [r["lambda_sq"] for r in rows] == [0.0, 0.005]
        for row in rows:
            noise = high_temperature_noise(row["lambda_sq"]).scaled(0.3 / DEFAULT_GAMMA0)
            f_star = analysis.find_optimal_point(loop, noise).f_star
            f_adiab = analysis.mean_fidelity(with_total_time(loop, tau3), noise)
            assert abs(row["robustness"] - (f_star - f_adiab) / f_star) <= 1e-12

        assert (out / "noise.json").read_bytes() == (opt / "noise.json").read_bytes()
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = tmp_path / "echo.json"
        shutil.copy(out / "run_config.json", cfg)
        shutil.rmtree(out)
        assert main(["robustness", "--config", str(cfg)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_robustness_applies_the_calibration_scale(self, tmp_path):
        # optimal writes noise.json already scaled; the recorded scale is
        # provenance only and must not be applied a second time
        table = tmp_path / "table.json"
        rows = [{"lambda_sq": 0.0, "f_star": 1.0, "omega_tau_star": OMEGA_TAU_1}]
        config = {**TABLE_CONFIG, "provenance": {"noise_scale": 2.0}}
        table.write_text(json.dumps({"rows": rows, "config": config}))
        scaled = {**FLAT_NOISE, "gamma": {k: 1.0 for k in FLAT_NOISE["gamma"]}}
        (tmp_path / "noise.json").write_text(json.dumps(scaled))
        out = tmp_path / "rob"
        assert main(["robustness", "--table", str(table), "--out", str(out)]) == 0
        gamma = json.loads((out / "noise.json").read_text())["gamma"]
        assert set(gamma.values()) == {1.0}

    def test_robustness_ignores_a_noise_file_edited_after_optimal(self, tmp_path):
        bath = tmp_path / "bath.json"
        bath.write_text(json.dumps({"lambda_sq": 0.0, "gamma": {"0": 0.5}}))
        opt = tmp_path / "opt"
        assert main(["optimal", "--lambda-sq", "0.01", "--noise-file", str(bath),
                     "--out", str(opt)]) == 0
        table = str(opt / "optimal_points.json")
        assert main(["robustness", "--table", table, "--out", str(tmp_path / "a")]) == 0
        bath.write_text(json.dumps({"lambda_sq": 0.0, "gamma": {"0": 5.0}}))
        assert main(["robustness", "--table", table, "--out", str(tmp_path / "b")]) == 0
        a, b = (json.loads((tmp_path / d / "robustness.json").read_text()) for d in "ab")
        assert a["rows"] == b["rows"]
        for d in "ab":
            assert (tmp_path / d / "noise.json").read_bytes() == (opt / "noise.json").read_bytes()

    def test_optimal_default_steps_above_the_ceiling_is_config_error(self, tmp_path, capsys,
                                                                      monkeypatch):
        # wedge:2000's window centre, Omega*tau 25,139, takes 60,334 default steps
        monkeypatch.setattr(lindblad, "_loop_plan", no_plan)
        out = tmp_path / "x"
        code, streams = run([
            "optimal", "--loop", "wedge:2000", "--lambda-sq", "0.001", "--out", str(out),
        ], capsys)
        assert code == 2
        assert streams.err == (
            "error: Omega*tau 25139 takes 60334 default steps, above the ceiling of 50000\n")
        assert not out.exists()

    def test_robustness_default_steps_above_the_ceiling_is_config_error(self, tmp_path, capsys,
                                                                        monkeypatch):
        # wedge:700's third revival, Omega*tau 26,408, takes 63,380 default steps
        monkeypatch.setattr(lindblad, "_loop_plan", no_plan)
        table = tmp_path / "table.json"
        rows = [{"lambda_sq": 1e-3, "f_star": 0.99, "omega_tau_star": 8802.0}]
        config = {**TABLE_CONFIG, "loop": "wedge:700"}
        table.write_text(json.dumps({"rows": rows, "config": config}))
        (tmp_path / "noise.json").write_text(json.dumps(FLAT_NOISE))
        out = tmp_path / "rob"
        code, streams = run(["robustness", "--table", str(table), "--out", str(out)], capsys)
        assert code == 2
        assert "takes 63380 default steps, above the ceiling of 50000" in streams.err
        assert not out.exists()

    @pytest.mark.parametrize("rows, config, noise, message", [
        (bad_rows(key, value), TABLE_CONFIG, FLAT_NOISE, key) for key, value in BAD_ROW_VALUES
    ] + [
        (synthetic_rows(), {k: v for k, v in TABLE_CONFIG.items() if k != "steps"}, FLAT_NOISE,
         "steps"),
        (synthetic_rows(), {**TABLE_CONFIG, "steps": 2}, FLAT_NOISE, "steps"),
        (synthetic_rows(), {**TABLE_CONFIG, "omega": 1.3}, FLAT_NOISE, "does not read"),
        (synthetic_rows(), TABLE_CONFIG, None, "noise.json"),
        (synthetic_rows(), TABLE_CONFIG, {"lambda_sq": 0, "gamma": 5}, "AttributeError"),
        (synthetic_rows(), TABLE_CONFIG, {"lambda_sq": 0, "gamma": {"0": -1.0}},
         "decay rates must be finite"),
    ], ids=[*BAD_ROW_IDS, "config-without-steps", "steps-too-few", "config-omega-key",
            "noise-missing", "noise-malformed", "noise-negative-rate"])
    def test_robustness_bad_table_is_config_error(
        self, tmp_path, capsys, rows, config, noise, message
    ):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"rows": rows, "config": config}))
        if noise is not None:
            (tmp_path / "noise.json").write_text(json.dumps(noise))
        out = tmp_path / "x"
        code, streams = run(["robustness", "--table", str(table), "--out", str(out)], capsys)
        assert code == 2
        assert message in streams.err
        assert not out.exists()


def stub_response(monkeypatch, f2_of):
    """Replace the peak searches calibration runs by F* = 1 - F2 * lambda^2,
    with F2 = f2_of(noise); returns the list of tables asked for."""
    asked = []

    def table(loop, noise, lambda_sq_list, steps=None):
        asked.append(noise)
        return [
            analysis.OptimalPoint(18.0, 1.0 - f2_of(noise) * lam, lam, (17.0, 19.0), 1e-4)
            for lam in lambda_sq_list
        ]

    monkeypatch.setattr(analysis, "optimal_point_table", table)
    return asked


class TestCalibration:
    def test_noise_file_table_is_scaled_and_written(self, tmp_path, monkeypatch):
        table = {"lambda_sq": 0.0, "gamma": {"0": 0.2, "1": 0.1}, "lamb_shift": {"2": 0.05}}
        path = tmp_path / "bath.json"
        path.write_text(json.dumps(table))
        asked = stub_response(monkeypatch, lambda noise: 10.0 * noise.rate(0))
        out = tmp_path / "opt"
        assert main(["optimal", "--lambda-sq", "0", "--noise-file", str(path),
                     "--calibrate-f2", "6.34", "--out", str(out)]) == 0
        assert len(asked) == 2
        provenance = json.loads((out / "run_config.json").read_text())["provenance"]
        scale = provenance["noise_scale"]
        assert scale == pytest.approx(3.17, rel=1e-12)
        assert provenance["calibrated_f2"] == pytest.approx(6.34, rel=1e-12)
        written = json.loads((out / "noise.json").read_text())
        assert written == {
            "lambda_sq": 0.0,
            "gamma": {k: scale * v for k, v in table["gamma"].items()},
            "lamb_shift": {k: scale * v for k, v in table["lamb_shift"].items()},
        }

    def test_calibration_that_does_not_converge_exits_3(self, tmp_path, monkeypatch, capsys):
        asked = stub_response(monkeypatch, lambda noise: 1.0)
        out = tmp_path / "opt"
        code, streams = run(["optimal", "--lambda-sq", "0", "--calibrate-f2", "6.34",
                             "--out", str(out)], capsys)
        assert code == 3
        assert "after 3 rounds" in streams.err
        assert len(asked) == 3
        assert not out.exists()

    @pytest.mark.parametrize("loop", ["standard", "wedge:2", "wedge:3"])
    def test_table_without_noise_cannot_be_calibrated(self, tmp_path, capsys, monkeypatch, loop):
        searches = []
        monkeypatch.setattr(analysis, "find_optimal_point",
                            lambda *args, **kwargs: searches.append(args))
        path = tmp_path / "silent.json"
        path.write_text(json.dumps({"lambda_sq": 0.0, "gamma": {"0": 0.0}}))
        code, streams = run(["optimal", "--loop", loop, "--lambda-sq", "0",
                             "--noise-file", str(path), "--calibrate-f2", "6.34",
                             "--out", str(tmp_path / "x")], capsys)
        assert code == 3
        assert "no scale of this noise table" in streams.err
        assert searches == []

    @pytest.mark.parametrize("command", ["noisy-sweep", "optimal", "robustness"])
    def test_noise_json_reruns_the_same_table(self, tmp_path, command):
        table = {"lambda_sq": 0.0, "gamma": {"0": 0.2, "-2": 0.1}, "lamb_shift": {"1": 0.05}}
        path = tmp_path / "bath.json"
        path.write_text(json.dumps(table))

        def run_with(noise_file, out):
            # robustness reads the noise file named in the table optimal writes
            first = "optimal" if command == "robustness" else command
            argv = [first, "--lambda-sq", "0", "--noise-file", str(noise_file)]
            if command == "noisy-sweep":
                argv += ["--grid", "18:18:1"]
            if command != "robustness":
                return main([*argv, "--out", str(out)])
            opt = out.with_name(out.name + "-opt")
            assert main([*argv, "--out", str(opt)]) == 0
            return main([command, "--table", str(opt / "optimal_points.json"), "--out", str(out)])

        a, b = tmp_path / "a", tmp_path / "b"
        assert run_with(path, a) == 0
        assert run_with(a / "noise.json", b) == 0
        assert (a / "noise.json").read_bytes() == (b / "noise.json").read_bytes()
        assert json.loads((a / "noise.json").read_text()) == table


# The couplings of the figure set's optimal command: 0, the fit grid and the large ones.
FIGURE_LAMBDAS = ",".join(repr(float(x)) for x in
                          (0.0, *analysis.DEFAULT_FIT_LAMBDAS, *DEFAULT_LAMBDA_LIST[1:]))


def point_bits(point) -> list[str]:
    """Every float of an optimal point, exactly."""
    fields = (point["tau_star"], point["f_star"], point["lambda_sq"], *point["bracket"],
              point["tolerance"])
    return [float(x).hex() for x in fields]


class TestCalibratedTable:
    @pytest.fixture(scope="class")
    def calibrated(self, tmp_path_factory):
        """The figure set's calibrated optimal run, with the (noise table,
        steps) of each peak search it made."""
        searches, search = [], analysis.find_optimal_point

        def counted(loop, noise, steps=None):
            searches.append((json.dumps(dataclasses.asdict(noise), sort_keys=True), steps))
            return search(loop, noise, steps)

        out = tmp_path_factory.mktemp("calibrated") / "optimal"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "find_optimal_point", counted)
            assert main(["optimal", "--lambda-sq", FIGURE_LAMBDAS, "--calibrate-f2", "6.34",
                         "--out", str(out)]) == 0
        return out, searches

    def test_each_row_is_searched_once(self, calibrated):
        # 14 searches in the two calibration rounds, then only the 7 couplings
        # off the fit grid: the converged round's 7 rows are reused (28 before)
        _, searches = calibrated
        assert len(searches) == 21
        assert len(set(searches)) == 21

    def test_reused_rows_equal_fresh_searches(self, calibrated):
        out, _ = calibrated
        rows = json.loads((out / "optimal_points.json").read_text())["rows"]
        noise = lindblad.noise_from_dict(json.loads((out / "noise.json").read_text()))
        loop = wedge_loop(1, 1.0, 1.0)
        reused = [r for r in rows if r["lambda_sq"] in analysis.DEFAULT_FIT_LAMBDAS]
        assert len(reused) == len(analysis.DEFAULT_FIT_LAMBDAS)
        lindblad._channel_plan.cache_clear()
        for row in reused:
            fresh = analysis.find_optimal_point(loop, noise.with_lambda_sq(row["lambda_sq"]))
            assert point_bits(row) == point_bits(dataclasses.asdict(fresh))


class TestDeterminismAndRoundTrip:
    def test_parser_built_once_serves_every_call_alike(self, tmp_path):
        # a rejected flag, then two commands, in one process on the cached
        # parser and again on a parser built afresh for each call
        assert build_parser() is build_parser()
        out = tmp_path / "out"
        calls = [
            ["ideal-sweep", "--grid", "6:42:13", "--bogus", "--out", str(out / "bad")],
            ["ideal-sweep", "--grid", "6:42:13", "--out", str(out / "ideal")],
            ["optimal", "--lambda-sq", "1e-3", "--out", str(out / "opt")],
        ]
        written = []
        for fresh in (False, True):
            for argv, code in zip(calls, (2, 0, 0)):
                if fresh:
                    build_parser.cache_clear()
                assert main(argv) == code
            written.append({p.relative_to(out): p.read_bytes()
                            for p in out.rglob("*") if p.is_file()})
            shutil.rmtree(out)
        assert written[0] == written[1]
        assert len(written[0]) == 5

    def test_identical_config_identical_bytes(self, tmp_path):
        args = ["ideal-sweep", "--grid", "17:20:4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert (a / "sweep_lambda2_0.csv").read_bytes() == (b / "sweep_lambda2_0.csv").read_bytes()

    def test_rerun_from_emitted_config(self, tmp_path):
        a = tmp_path / "a"
        assert main(["ideal-sweep", "--grid", "17:20:4",
                     "--out", str(a)]) == 0
        emitted = a / "run_config.json"
        b = tmp_path / "b"
        assert main(["ideal-sweep", "--config", str(emitted), "--out", str(b)]) == 0
        assert (a / "sweep_lambda2_0.csv").read_bytes() == (b / "sweep_lambda2_0.csv").read_bytes()

    @pytest.mark.parametrize("command, config, flags, key", [
        ("optimal", {"calibrate_f2": "abc"}, ["--lambda-sq", "0"], "calibrate_f2"),
        ("noisy-sweep", {"grid": [1, 2]}, [], "grid"),
        ("noisy-sweep", {"lambda_sq": 0.1}, ["--grid", "18:18:1"], "lambda_sq"),
        ("noisy-sweep", {}, ["--grid", "18:18:1", "--lambda-sq", "nan"], "lambda_sq"),
        ("noisy-sweep", {}, ["--grid", "1:1:3"], "grid"),
        ("noisy-sweep", {}, ["--grid", "18:18:1", "--lambda-sq", ","], "lambda_sq"),
        ("optimal", {}, ["--lambda-sq", ""], "lambda_sq"),
        ("optimal", {"lambda_sq": []}, [], "lambda_sq"),
        ("robustness", {"table": 5}, [], "table"),
        ("noisy-sweep", {}, ["--grid", "18:18:1", "--lambda-sq", "0.005,5e-3"], "lambda_sq"),
        ("optimal", {"lambda_sq": [0.01, 0.0, 0.01]}, [], "lambda_sq"),
        ("noisy-sweep", {}, ["--grid", "18:18:1", "--lambda-sq", "0.005,0.0050000000000001"],
         "lambda_sq"),
        # a loop file beside the setting it replaces
        ("ideal-sweep", {}, ["--grid", "18:18:1", "--loop-file", "loop.json", "--loop", "wedge:3"],
         "loop 'wedge:3' conflicts with loop_file"),
    ], ids=["calibrate-f2-string", "grid-two-entries", "lambda-sq-scalar", "lambda-sq-nan",
            "grid-not-increasing", "lambda-sq-comma",
            "lambda-sq-empty-flag", "lambda-sq-empty-list", "table-not-a-string",
            "lambda-sq-repeated-flag", "lambda-sq-repeated-config", "lambda-sq-same-file-name",
            "loop-file-and-loop-flag"])
    def test_bad_config_value_is_config_error(
        self, tmp_path, capsys, command, config, flags, key
    ):
        write_synthetic_table(tmp_path / "table.json")
        (tmp_path / "loop.json").write_text(json.dumps(loop_doc()))
        (tmp_path / "noise.json").write_text(json.dumps(FLAT_NOISE))
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run([command, "--config", str(cfg), *flags,
                         "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert key in out.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, config, flags", [
        ("ideal-sweep", {"grid": [17, 20, 4], "typo_key": 1}, []),
        ("ideal-sweep", {"grid": [17, 20, 4], "states": None}, []),
        ("ideal-sweep", {"grid": [17, 20, 4]}, ["--states", "30"]),
        # an echo of a fit that still released the intercept
        ("fit", {"table": "table.json", "free_intercept": False}, []),
        # echoes of sweeps and tables that still set Omega or the flat rate
        ("ideal-sweep", {"grid": [17, 20, 4], "omega": 1.0}, []),
        ("optimal", {"lambda_sq": [0.0], "gamma0": 0.5}, []),
    ], ids=["typo-key", "states-key", "states-flag", "fit-free-intercept-key", "omega-key",
            "gamma0-key"])
    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch, command, config, flags):
        monkeypatch.chdir(tmp_path)
        write_synthetic_table(tmp_path / "table.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag, key, value", [
        ("holonomy", "--steps", "steps", 5),
        ("ideal-sweep", "--calibrate-f2", "calibrate_f2", 6.34),
        ("optimal", "--grid", "grid", [1, 2, 3]),
        ("fit", "--gamma0", "gamma0", 1),
        ("ideal-sweep", "--omega-tau", "omega_tau", 18.25),
        ("noisy-sweep", "--calibrate-f2", "calibrate_f2", 6.34),
        ("robustness", "--calibrate-f2", "calibrate_f2", 6.34),
        ("fit", "--loop", "loop", "wedge:2"),
        ("holonomy", "--out", "out", "x"),
        ("robustness", "--lambda-sq", "lambda_sq", [0.005]),
        ("robustness", "--noise-file", "noise_file", "x"),
        ("fit", "--free-intercept", "free_intercept", True),
        ("noisy-sweep", "--omega", "omega", 1.3),
        ("optimal", "--gamma0", "gamma0", 0.25),
    ], ids=["holonomy-steps", "ideal-sweep-calibrate-f2", "optimal-grid", "fit-gamma0",
            "ideal-sweep-omega-tau", "noisy-sweep-calibrate-f2", "robustness-calibrate-f2",
            "fit-loop", "holonomy-out", "robustness-lambda-sq", "robustness-noise-file",
            "fit-free-intercept", "noisy-sweep-omega", "optimal-gamma0"])
    def test_setting_the_command_does_not_read_is_rejected(
        self, tmp_path, monkeypatch, capsys, command, flag, key, value
    ):
        # a run that went ahead would write into x
        monkeypatch.chdir(tmp_path)
        write_synthetic_table(tmp_path / "table.json")
        given = {"noisy-sweep": ["--grid", "18:18:1", "--lambda-sq", "0"],
                 "robustness": ["--table", "table.json"],
                 "fit": ["--table", "table.json"]}.get(command, [])
        if command != "holonomy":
            given += ["--out", "x"]
        text = ":".join(map(str, value)) if isinstance(value, list) else str(value)
        code, streams = run([command, flag, text, *given], capsys)
        assert code == 2
        assert flag in streams.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, streams = run([command, "--config", str(cfg), *given], capsys)
        assert code == 2
        assert key in streams.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "command", ["ideal-sweep", "noisy-sweep", "optimal", "robustness", "fit", "holonomy"])
    def test_rerun_from_own_echo_is_byte_identical(self, tmp_path, capsys, command):
        table = tmp_path / "table.json"
        write_synthetic_table(table, n=2)
        optimal = ["--lambda-sq", "0,1e-3", "--steps", "600"]
        (tmp_path / "loop.json").write_text(json.dumps(loop_doc(2, 1.5)))
        if command == "robustness":  # it reads a real table and the noise.json beside it
            assert run(["optimal", *optimal, "--out", str(tmp_path / "opt")], capsys)[0] == 0
        out = tmp_path / "a"
        argv = {
            "ideal-sweep": ["--grid", "17:20:4", "--loop-file", str(tmp_path / "loop.json"),
                            "--out", str(out)],
            "noisy-sweep": ["--grid", "17:19:3", "--lambda-sq", "0,0.01", "--steps", "300",
                            "--out", str(out)],
            "optimal": [*optimal, "--out", str(out)],
            "robustness": ["--table", str(tmp_path / "opt" / "optimal_points.json"),
                           "--out", str(out)],
            "fit": ["--table", str(table), "--out", str(out)],
            "holonomy": ["--loop", "wedge:2"],
        }[command]
        code, first = run([command, *argv], capsys)
        assert code == 0
        cfg = tmp_path / "echo.json"
        written = {}
        if command == "holonomy":  # its one output is stdout
            cfg.write_text(json.dumps(json.loads(first.out)["config"]))
        else:
            shutil.copy(out / "run_config.json", cfg)
            written = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
        code, second = run([command, "--config", str(cfg)], capsys)
        assert code == 0
        assert second.out == first.out
        assert {p.name: p.read_bytes() for p in out.glob("*")} == written

    def test_noisy_sweep_rerun_writes_identical_csvs(self, tmp_path):
        written = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert main(["noisy-sweep", "--grid", "17:19:3", "--lambda-sq", "0,0.01",
                         "--steps", "300", "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert len(written[0]) == 2
        assert written[0] == written[1]

    def test_noisy_sweep_loads_no_process_machinery(self, tmp_path):
        script = (
            "import sys\n"
            "from tripod_holonomy.cli import main\n"
            f"code = main(['noisy-sweep', '--grid', '17:19:3', '--lambda-sq', '0,0.01',"
            f" '--steps', '300', '--out', {str(tmp_path / 'out')!r}])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(tripod_holonomy.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
