"""Command-line front end: sweeps, optimal-point tables, fits, robustness,
and holonomy output, each driven by a JSON config that CLI flags override.
A command takes only the settings it reads (`_SETTINGS`) and echoes them
for provenance, so outputs can be reproduced from themselves.

Exit codes: 0 success, 2 configuration error (a loop outside the wedge
family included), 3 numerical-validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    calibrate_noise,
    f_of_tau_relation,
    fit_noise_response,
    optimal_point_table,
    robustness,
    sweep,
)
from .errors import (
    ConfigError,
    ModelMismatch,
    NoPeakInWindow,
    StepCountTooSmall,
    TripodError,
    UnderdeterminedFit,
    UnsupportedLoop,
)
from .lindblad import (
    DEFAULT_GAMMA0,
    STEP_CEILING,
    NoiseModel,
    high_temperature_noise,
    noise_from_dict,
)
from .loops import (
    ANGLE_TOL,
    LoopSpec,
    _is_number,
    loop_from_dict,
    optimal_time,
    wedge_loop,
    wedge_order,
)
from .propagators import adiabatic_holonomy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_LAMBDA_LIST = (0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (file keys overridden by CLI flags).

    Its fields are the config-file keys and the destinations of the
    matching flags; `_SETTINGS` says which of them each command reads.
    """

    loop: str = "standard"
    loop_file: str | None = None
    omega: float = 1.0
    grid: tuple[float, float, int] | None = None
    lambda_sq: tuple[float, ...] | None = None
    gamma0: float = DEFAULT_GAMMA0
    noise_file: str | None = None
    steps: int | None = None
    out: str = "out"
    calibrate_f2: float | None = None
    free_intercept: bool = False
    table: str | None = None

    def validate(self) -> None:
        for name in ("loop", "out", "loop_file", "noise_file", "table"):
            value = getattr(self, name)
            optional = name not in ("loop", "out")
            if not (isinstance(value, str) or (optional and value is None)):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not isinstance(self.free_intercept, bool):
            raise ConfigError(f"free_intercept must be true or false, got {self.free_intercept!r}")
        _check_number("omega", self.omega, minimum=0.0, strict=True)
        _check_number("gamma0", self.gamma0, minimum=0.0)
        if self.calibrate_f2 is not None:
            _check_number("calibrate_f2", self.calibrate_f2, minimum=0.0, strict=True)
        if self.steps is not None and not (
            _is_integer(self.steps) and 3 <= self.steps <= STEP_CEILING
        ):
            raise ConfigError(f"steps must be an integer in [3, {STEP_CEILING}], got {self.steps!r}")
        if self.grid is not None:
            if len(self.grid) != 3:
                raise ConfigError(f"grid must be [START, STOP, POINTS], got {list(self.grid)}")
            start, stop, points = self.grid
            if not (
                _is_number(start) and _is_number(stop) and _is_integer(points)
                and points >= 1 and 0 < start <= stop < math.inf and (stop > start or points == 1)
            ):
                raise ConfigError(
                    f"invalid grid {list(self.grid)}: need 0 < START < STOP and an integer "
                    "POINTS >= 1 (START = STOP only with one point)"
                )
            try:
                repeats = points > 1 and not (np.diff(self.grid_values()) > 0).all()
            except ValueError as exc:  # numpy cannot size an array of that many points
                raise ConfigError(f"grid of {points} points: {exc}") from None
            if repeats:
                raise ConfigError(f"grid {list(self.grid)} repeats a point: STOP is too near START")
        if self.lambda_sq is not None:
            if not self.lambda_sq:
                raise ConfigError("lambda_sq must list at least one coupling")
            for lam in self.lambda_sq:
                _check_number("lambda_sq entries", lam, minimum=0.0)
            names = [_sweep_file_name(lam) for lam in self.lambda_sq]
            if len(set(names)) < len(names):
                raise ConfigError(
                    f"lambda_sq lists couplings equal to 12 significant digits, which "
                    f"name one sweep file: {list(self.lambda_sq)}"
                )
        # a loop or noise file sets these too, and an echo of a changed one
        # would record a value that was not used
        for file_key, keys in (("loop_file", ("loop", "omega")), ("noise_file", ("gamma0",))):
            for key in keys:
                value = getattr(self, key)
                if getattr(self, file_key) is not None and value != getattr(RunConfig, key):
                    raise ConfigError(f"{key} {value!r} conflicts with {file_key}, which "
                                      "sets it; give only one")
        if self.loop_file is None:
            parse_loop_kind(self.loop)

    def grid_values(self) -> np.ndarray:
        if self.grid is None:
            raise ConfigError("no Omega*tau grid configured (use --grid START:STOP:POINTS)")
        start, stop, points = self.grid
        return np.linspace(start, stop, points)


_LOOP = ("loop", "loop_file", "omega", "out")
_NOISE = ("lambda_sq", "gamma0", "noise_file", "steps")

# The RunConfig fields each command reads: its flags, the keys its config
# file may hold and the keys its config echo writes. Unread fields keep
# their defaults.
_SETTINGS = {
    "ideal-sweep": _LOOP + ("grid",),
    "noisy-sweep": _LOOP + ("grid",) + _NOISE,
    "optimal": _LOOP + _NOISE + ("calibrate_f2",),
    "fit": ("out", "table", "free_intercept"),
    "robustness": ("out", "table"),
    "holonomy": ("loop", "loop_file"),
}

# argparse keywords of the flag --field-name of each RunConfig field.
_FLAGS = {
    "loop": {"help": "standard or wedge:N"},
    "loop_file": {"help": "LoopSpec JSON file; its omega_scale is Omega"},
    "omega": {"type": float, "help": "energy scale Omega of a --loop loop"},
    "out": {"help": "output directory"},
    "grid": {"help": "Omega*tau grid as START:STOP:POINTS (X:X:1 for one point)"},
    "lambda_sq": {"help": "comma-separated coupling strengths"},
    "gamma0": {"type": float, "help": "flat high-T decay rate"},
    "noise_file": {"help": "NoiseModel JSON file"},
    "steps": {"type": int, "help": "integrator steps per loop"},
    "calibrate_f2": {"type": float,
                     "help": "scale the noise table so the fitted F2 matches this value"},
    "table": {"help": "optimal-points JSON file, as optimal writes"},
    "free_intercept": {"action": "store_true", "default": None,
                       "help": "also report free-intercept diagnostic fits"},
}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_number(name: str, value, minimum: float, strict: bool = False) -> None:
    """Require a finite number >= minimum (> minimum when strict)."""
    if not (
        _is_number(value) and math.isfinite(value)
        and (value > minimum if strict else value >= minimum)
    ):
        bound = ">" if strict else ">="
        raise ConfigError(f"{name} must be a finite number {bound} {minimum:g}, got {value!r}")


def parse_loop_kind(text: str) -> int:
    """'standard' or 'wedge:N' -> wedge order N."""
    if text == "standard":
        return 1
    if text.startswith("wedge:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad wedge order in loop spec {text!r}") from None
        # from N ~ 1.57e9 on, the equator arc's opening pi/(2N) is at most ANGLE_TOL
        if not 1 <= n < math.pi / (2 * ANGLE_TOL):
            raise ConfigError(f"wedge order {n} is not in [1, {math.pi / (2 * ANGLE_TOL):.4g})")
        return n
    raise ConfigError(f"unknown loop kind {text!r} (expected standard or wedge:N)")


def parse_grid_flag(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid expects START:STOP:POINTS, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"unparsable --grid value {text!r}") from None


def parse_lambda_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"unparsable --lambda-sq list {text!r}") from None


def _read_json(path: str, what: str, parse):
    """parse() of the JSON object a file holds. A missing or unreadable
    file, invalid JSON, a document that is not an object, a malformed or
    wrong-typed field and a package error of parse() are ConfigErrors."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        return parse(doc)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except (TripodError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"invalid {what} {path}: {type(exc).__name__} {exc}") from exc


# Flags given as text that parse into a tuple-valued field.
_FLAG_PARSERS = {"grid": parse_grid_flag, "lambda_sq": parse_lambda_list}


def load_config_file(path: str, command: str) -> dict:
    def settings(doc: dict) -> dict:
        doc.pop("provenance", None)  # echoed configs carry a provenance block
        unread = set(doc) - set(_SETTINGS[command])
        if unread:
            raise ConfigError(f"config keys {command} does not read: {sorted(unread)}")
        for key in _FLAG_PARSERS:
            if doc.get(key) is not None:
                if not isinstance(doc[key], list):
                    raise ConfigError(f"config key {key!r} must be a list, got {doc[key]!r}")
                doc[key] = tuple(doc[key])
        return doc

    return _read_json(path, "config file", settings)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    doc = load_config_file(args.config, args.command) if args.config else {}
    for key in _SETTINGS[args.command]:
        value = getattr(args, key)
        if value is not None:
            parse = _FLAG_PARSERS.get(key)
            doc[key] = parse(value) if parse else value
    cfg = replace(RunConfig(), **doc)
    cfg.validate()
    if "table" in _SETTINGS[args.command] and cfg.table is None:
        raise ConfigError(f"{args.command} needs --table pointing at an optimal-points JSON file")
    return cfg


def build_loop(cfg: RunConfig) -> LoopSpec:
    """Loop template with unit total time; commands rescale per tau."""
    if cfg.loop_file is not None:
        return _read_json(cfg.loop_file, "loop file", loop_from_dict)
    return wedge_loop(parse_loop_kind(cfg.loop), cfg.omega, 1.0)


def build_noise(cfg: RunConfig) -> NoiseModel:
    if cfg.noise_file is not None:
        return _read_json(cfg.noise_file, "noise file", noise_from_dict)
    return high_temperature_noise(0.0, gamma0=cfg.gamma0)


def resolved_config_doc(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    """The settings the command reads, plus a provenance block."""
    doc = {key: getattr(cfg, key) for key in _SETTINGS[command]}
    doc["provenance"] = {"version": __version__, **(extra or {})}
    return doc


def _json_dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _write_run_config(
    out_dir: Path,
    cfg: RunConfig,
    command: str,
    extra: dict | None = None,
    noise: NoiseModel | None = None,
) -> dict:
    """Write run_config.json and, for a noisy command, the noise table it
    used as noise.json, which --noise-file reads back unchanged."""
    doc = resolved_config_doc(cfg, command, extra)
    _write(out_dir / "run_config.json", _json_dump(doc))
    if noise is not None:
        _write(out_dir / "noise.json", json.dumps(asdict(noise.with_lambda_sq(0.0))) + "\n")
    return doc


def _sweep_file_name(lambda_sq: float) -> str:
    return f"sweep_lambda2_{lambda_sq:.12g}.csv"


def _sweep_csv(grid: np.ndarray, fidelity: np.ndarray) -> str:
    """Header plus one row per sample, 12 significant digits, all rows in
    one format pass."""
    values = np.column_stack([grid, fidelity]).ravel().tolist()
    return "omega_tau,mean_fidelity\n" + "%.12g,%.12g\n" * len(grid) % tuple(values)


def _lambdas(cfg: RunConfig) -> list[float]:
    return list(cfg.lambda_sq if cfg.lambda_sq is not None else DEFAULT_LAMBDA_LIST)


def cmd_ideal_sweep(cfg: RunConfig) -> int:
    loop, grid = build_loop(cfg), cfg.grid_values()
    return _write_sweep(cfg, "ideal-sweep", grid, [0.0], sweep(loop, grid, [0.0]))


def cmd_noisy_sweep(cfg: RunConfig) -> int:
    loop, grid, noise, lambdas = build_loop(cfg), cfg.grid_values(), build_noise(cfg), _lambdas(cfg)
    curves = sweep(loop, grid, lambdas, steps=cfg.steps, noise=noise)
    return _write_sweep(cfg, "noisy-sweep", grid, lambdas, curves, noise)


def _write_sweep(cfg: RunConfig, command: str, grid: np.ndarray, lambdas: list[float],
                 curves: list[np.ndarray], noise: NoiseModel | None = None) -> int:
    out_dir = Path(cfg.out)
    _write_run_config(out_dir, cfg, command, noise=noise)
    for lam, fidelity in zip(lambdas, curves):
        _write(out_dir / _sweep_file_name(lam), _sweep_csv(grid, fidelity))
    return EXIT_OK


def cmd_optimal(cfg: RunConfig) -> int:
    loop, noise, extras, known = build_loop(cfg), build_noise(cfg), {}, {}
    if cfg.calibrate_f2 is not None:
        scale, fit, table = calibrate_noise(loop, noise, cfg.calibrate_f2, steps=cfg.steps)
        noise, known = noise.scaled(scale), {p.lambda_sq: p for p in table}
        extras = {"noise_scale": scale, "calibrated_f2": fit.coefficient("F2")}
    # the converged round's rows are this noise table's rows: search only the others
    new = [lam for lam in _lambdas(cfg) if lam not in known]
    known.update(zip(new, optimal_point_table(loop, noise, new, steps=cfg.steps)))
    points = [known[lam] for lam in _lambdas(cfg)]
    out_dir = Path(cfg.out)
    doc = {
        "config": _write_run_config(out_dir, cfg, "optimal", extras, noise),
        "rows": [{**asdict(p), "omega_tau_star": loop.omega_scale * p.tau_star} for p in points],
    }
    _write(out_dir / "optimal_points.json", _json_dump(doc))
    return EXIT_OK


def _table_from_dict(doc: dict, keys: tuple[str, ...]) -> tuple[list, list, RunConfig]:
    """(F* points, Omega*tau* points, settings) of an optimal table: the
    given keys of the config block optimal writes beside the rows, checked
    as a config file's are."""
    rows, config = doc.get("rows"), doc.get("config")
    if not isinstance(rows, list) or not rows:
        raise ConfigError('no non-empty "rows" list, as optimal writes')
    for r in rows:
        for key, strict in (("lambda_sq", False), ("f_star", True), ("omega_tau_star", True)):
            _check_number(key, r[key], minimum=0.0, strict=strict)
    f_pts = [(r["lambda_sq"], r["f_star"]) for r in rows]
    t_pts = [(r["lambda_sq"], r["omega_tau_star"]) for r in rows]
    if not isinstance(config, dict):
        raise ConfigError('no "config" block, as optimal writes')
    table_cfg = replace(RunConfig(), **{key: config[key] for key in keys})
    table_cfg.validate()
    return f_pts, t_pts, table_cfg


def cmd_fit(cfg: RunConfig) -> int:
    f_pts, t_pts, loop_cfg = _read_json(
        cfg.table, "table file", lambda doc: _table_from_dict(doc, ("loop", "loop_file"))
    )
    tau1 = optimal_time(1, wedge_order(build_loop(loop_cfg)), 1.0)  # Omega*tau*_1

    fits = {
        "f_linear": fit_noise_response(f_pts, "f_linear"),
        "tau_linear": fit_noise_response(t_pts, "tau_linear", intercept=tau1),
    }
    if len(f_pts) >= 4:
        fits["f_quartic"] = fit_noise_response(f_pts, "f_quartic")
    if len(t_pts) >= 5:
        fits["tau_cubic"] = fit_noise_response(t_pts, "tau_cubic", intercept=tau1)
    if cfg.free_intercept:
        fits["f_linear_free"] = fit_noise_response(f_pts, "f_linear", free_intercept=True)
        fits["tau_linear_free"] = fit_noise_response(
            t_pts, "tau_linear", intercept=tau1, free_intercept=True
        )
    slope = f_of_tau_relation(fits["f_linear"], fits["tau_linear"])
    out_dir = Path(cfg.out)
    out_doc = {
        "config": _write_run_config(out_dir, cfg, "fit"),
        "fits": {name: asdict(fit) for name, fit in fits.items()},
        "f_of_tau_slope": slope,
    }
    _write(out_dir / "fit_results.json", _json_dump(out_doc))
    return EXIT_OK


def cmd_robustness(cfg: RunConfig) -> int:
    """R at every row of the table, with the noise.json that optimal wrote
    beside it: the table it used, already scaled by any calibration."""
    f_pts, _, table_cfg = _read_json(
        cfg.table, "table file",
        lambda doc: _table_from_dict(doc, ("loop", "loop_file", "omega", "steps")),
    )
    loop = build_loop(table_cfg)
    noise = _read_json(str(Path(cfg.table).with_name("noise.json")), "noise file", noise_from_dict)
    rows = []
    for lam, f_star in f_pts:
        r = robustness(loop, noise.with_lambda_sq(lam), f_star, steps=table_cfg.steps)
        rows.append({"lambda_sq": lam, "robustness": r})
    out_dir = Path(cfg.out)
    doc = {"config": _write_run_config(out_dir, cfg, "robustness", noise=noise), "rows": rows}
    _write(out_dir / "robustness.json", _json_dump(doc))
    return EXIT_OK


def cmd_holonomy(cfg: RunConfig) -> int:
    loop = build_loop(cfg)
    hol = adiabatic_holonomy(loop)
    doc = {
        "config": resolved_config_doc(cfg, "holonomy"),
        "dim": 2,
        "entries": hol.view(float).ravel().tolist(),  # row-major, re/im interleaved
    }
    print(_json_dump(doc), end="")
    return EXIT_OK


_COMMANDS = {
    "ideal-sweep": cmd_ideal_sweep,
    "noisy-sweep": cmd_noisy_sweep,
    "optimal": cmd_optimal,
    "fit": cmd_fit,
    "robustness": cmd_robustness,
    "holonomy": cmd_holonomy,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each of its flags costs a help formatter to build."""
    parser = argparse.ArgumentParser(
        prog="tripod-holonomy",
        description="Holonomic tripod gate simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key in _SETTINGS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, UnderdeterminedFit, ModelMismatch, UnsupportedLoop) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepCountTooSmall, NoPeakInWindow) as exc:
        print(f"numerical validation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TripodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
