"""Batch experiment runner.

``weakpathlab <command> --config <file> [--seed N] [--out DIR] [--threads K]``

The config is a single YAML document validated strictly: unknown keys and
keys the command does not read are errors, every referenced model or
functional must be shipped, and all randomness flows from the single seed.  ``--threads`` never changes any
numeric output.  Each run writes ``report.csv``, ``summary.json`` and a
``manifest.json`` with the config hash and the environment (Python, numpy,
platform, CPU count, BLAS and the BLAS thread count of every product)
into its output directory; files are never overwritten.

Exit status: 0 when every embedded check passed, 1 when a check failed,
2 for usage or config errors, 3 for insufficient signal or a budget cap,
4 for a numeric failure (a non-finite value an estimator cannot exclude).
Once the experiment runs, every exit writes ``summary.json``; its
``status`` is ``ok`` (exit 0 or 1), ``invalid-experiment`` (2),
``insufficient-signal`` or ``budget-cap`` (3) or ``numeric-failure`` (4),
and a failure adds its ``detail``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__, blas
from .core_paths import DiscretePath, TimeGrid, make_uniform_grid, refine_grid
from .errors import (
    BudgetExceededError,
    ConfigError,
    InsufficientSignalError,
    InvalidArgumentError,
    UnknownNameError,
)
from .functional_calculus import (
    ResidualReport,
    error_representation_sides,
    ito_rms_study,
    kolmogorov_residual,
    martingale_gap,
)
from .functionals import (
    PathFunctional,
    integral_functional,
    point_functional,
    product_functional,
    smooth_max_functional,
)
from .models import SdeModel, constant_model, ou_model, sine_model
from .mollifier import MollifierSpec, audit
from .randomness import SeedSpec
from .weak_error import (
    ClosedFormReference,
    FineGridReference,
    RateExperiment,
    covariance_bias,
    interpolation_gap_stats,
    ladder_samples,
    ladder_steps,
    weak_rate_experiment,
)

COMMANDS = (
    "weak-rate",
    "covariance-bias",
    "gap-stats",
    "kolmogorov-check",
    "martingale-check",
    "ito-check",
    "error-representation",
    "mollifier-audit",
)

DEFAULT_DELTAS = [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]

# eps itself, else epsilon_mesh_multiple times the command's mesh
_MESH_EPSILON = {"epsilon": None, "epsilon_mesh_multiple": 2.0}

# every key of grid, mollifier, budget, check and reference that a command
# reads, with its default (None: off), and its default model; parse_config
# fills them in key by key, checks each value against its default's shape
# and rejects every other key of those sections.  A
# config with no ``functional`` section gets the command's whole default
# functional below, so a user's functional never mixes with another
# functional's parameters
_COMMAND_DEFAULTS = {
    "weak-rate": {
        "grid": {"T": 1.0, "deltas": DEFAULT_DELTAS},
        "mollifier": {"epsilon": None},
        "budget": {"n_samples": 1_000_000, "batch_size": 1 << 17},
        "check": {"rate_range": [0.7, 1.3]},
        "reference": {"kind": "closed-form", "factor": 64},
        "model": {"name": "ou"},
    },
    "covariance-bias": {
        "grid": {"T": 1.0, "deltas": DEFAULT_DELTAS},
        "budget": {"n_samples": 1_000_000, "batch_size": 1 << 17},
        "check": {"ratio_max": 3.0},
        "model": {"name": "ou"},
    },
    "gap-stats": {
        "grid": {"T": 1.0, "n_steps": 8, "fine_factor": 64},
        "budget": {"n_samples": 20_000},
        # no sup4_bound: the pure-noise bound for constant(0, sigma), else no check
        "check": {"n_probes": 16, "sup4_bound": None},
        "model": {"name": "constant"},
    },
    "kolmogorov-check": {
        "grid": {"T": 1.0, "n_steps": 128},
        "mollifier": _MESH_EPSILON,
        "budget": {"n_inner": 1000, "n_outer": 1000},
        "check": {"t": 0.5, "bump": None, "allowance_rel": 0.1},
        "model": {"name": "ou"},
    },
    "martingale-check": {
        "grid": {"T": 1.0, "n_steps": 128},
        "mollifier": _MESH_EPSILON,
        "budget": {"n_samples": 256, "n_inner": 256},
        "check": {"times": [0.25, 0.75]},
        "model": {"name": "ou"},
    },
    "ito-check": {
        "grid": {"T": 1.0},
        "budget": {"n_samples": 10_000},
        "check": {"meshes": [16, 32, 64, 128, 256], "ratio_range": [1.2, 1.7]},
    },
    "error-representation": {
        "grid": {"T": 0.25, "n_steps": 2, "fine_factor": 64},
        "mollifier": _MESH_EPSILON,
        "budget": {"n_outer": 256, "n_inner": 256, "inner_cap": 200_000_000},
        "check": {"quad_per_interval": 4, "bump": None, "freeze": True},
        "model": {"name": "ou"},
    },
    "mollifier-audit": {
        "grid": {"T": 1.0, "n_steps": 256},
        "mollifier": {**_MESH_EPSILON, "kernel_samples": 64},
        "check": {"n_paths": 1000},
    },
}
_SCALAR_SECTIONS = ("grid", "mollifier", "budget", "check", "reference")

# the functional a command evaluates when the config has none; its parameters
# take build_functional's defaults relative to the horizon T
_DEFAULT_FUNCTIONAL = {
    "weak-rate": {"name": "product"},
    "covariance-bias": {"name": "product"},
    "kolmogorov-check": {"name": "point"},
    "martingale-check": {"name": "point"},
    "error-representation": {"name": "point"},
}

_TOP_LEVEL = {"command", "seed", "out_dir", "threads", "model", "functional", *_SCALAR_SECTIONS}

# each shipped model's constructor and its parameter defaults
_MODELS = {
    "ou": (ou_model, {"theta": 1.0, "sigma": 1.0, "xi0": 1.0}),
    "sine": (sine_model, {"a": 0.5, "c": 1.0, "xi0": 0.5}),
    "constant": (constant_model, {"drift": 0.0, "diffusion": 1.0, "xi0": 0.0}),
}
_FUNCTIONAL_KEYS = {
    "product": {"t1", "t2"},
    "point": {"t1"},
    "integral-square": set(),
    "smooth-max": {"beta"},
}


@dataclass
class ExperimentConfig:
    command: str
    seed: int
    threads: int = 1
    out_dir: str | None = None
    model: dict = field(default_factory=dict)
    functional: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    mollifier: dict = field(default_factory=dict)
    budget: dict = field(default_factory=dict)
    check: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """sha256 of the resolved experiment: the command, the effective seed,
        every section with its documented defaults filled in, the built
        model's name and parameters and the built functional's name (so
        builder and runner defaults count as if spelled out).  ``threads``
        and ``out_dir`` change no number and are left out."""
        resolved = asdict(self)
        del resolved["threads"], resolved["out_dir"]
        if self.model:
            model = build_model(self.model)
            resolved["model"] = {"name": model.name, "params": model.params}
        functional = command_functional(self)
        resolved["functional"] = None if functional is None else functional.name
        canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _integer(value, key_path: str, least: int) -> int:
    """``value`` if it is an integer (not a bool) of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"must be an integer >= {least}, got {value!r}", key_path=key_path)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_default_type(value, default, key_path: str):
    """``value`` with its integers stored as floats where ``default`` holds
    floats, so that ``2`` and ``2.0`` hash alike."""
    try:
        if isinstance(default, float) and _is_number(value):
            return float(value)
        if (isinstance(default, list) and isinstance(value, list)
                and all(isinstance(d, float) for d in default)):
            return [float(v) if _is_number(v) else v for v in value]
    except OverflowError:
        raise ConfigError("out of range for a float", key_path=key_path) from None
    return value


# check keys that a runner unpacks into two numbers
_PAIRS = ("rate_range", "ratio_range", "times")


def _check_shape(key_path: str, value, default):
    """Raise ``ConfigError`` unless the value at ``key_path`` (section.key)
    has its default's shape: a list of numbers (two for a pair, else at
    least two), a bool, a string, a number, or a number or null where the
    default is None.  Where the default, or each of its entries, is an
    integer, the value must be an integer >= 1."""
    if isinstance(default, bool):
        want, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, list):
        pair = key_path.split(".")[-1] in _PAIRS
        want = "a list of two numbers" if pair else "a list of at least two numbers"
        ok = (isinstance(value, list) and all(map(_is_number, value))
              and (len(value) == 2 if pair else len(value) >= 2))
        if ok and all(isinstance(d, int) for d in default):
            for i, v in enumerate(value):
                _integer(v, f"{key_path}[{i}]", 1)
    elif isinstance(default, int):
        _integer(value, key_path, 1)
        return
    elif isinstance(default, str):
        want, ok = "a string", isinstance(value, str)
    elif default is None:
        want, ok = "a number or null", value is None or _is_number(value)
    else:
        want, ok = "a number", _is_number(value)
    if not ok:
        raise ConfigError(f"must be {want}, got {value!r}", key_path=key_path)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, filling documented defaults."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    for key in doc:
        if key not in _TOP_LEVEL:
            raise ConfigError("unknown key", key_path=key)
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}", key_path="command")

    cfg = ExperimentConfig(
        command=command,
        seed=_integer(doc.get("seed", 0), "seed", 0),
        threads=_integer(doc.get("threads", 1), "threads", 1),
        out_dir=doc.get("out_dir"),
    )
    for section in ("model", "functional", *_SCALAR_SECTIONS):
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError("must be a mapping", key_path=section)
        defaults = _COMMAND_DEFAULTS[command].get(section, {})
        for key in sub:
            if section in _SCALAR_SECTIONS and key not in defaults:
                raise ConfigError(f"{command} reads no such key", key_path=f"{section}.{key}")
        target = getattr(cfg, section)
        target.update(sub)
        for key, value in defaults.items():
            given = target.setdefault(key, list(value) if isinstance(value, list) else value)
            if section in _SCALAR_SECTIONS:
                _check_shape(f"{section}.{key}", given, value)
            target[key] = _as_default_type(given, value, f"{section}.{key}")
    # build eagerly so typos and invalid parameter values fail at parse time
    try:
        if cfg.model:
            build_model(cfg.model)
        command_functional(cfg)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model or functional parameter: {exc}") from exc
    if cfg.reference and cfg.reference["kind"] not in ("closed-form", "fine-grid"):
        raise ConfigError(f"unknown reference kind {cfg.reference['kind']!r}",
                          key_path="reference.kind")
    return cfg


def build_model(spec: dict) -> SdeModel:
    params = dict(spec)
    name = params.pop("name", None)
    if name not in _MODELS:
        raise UnknownNameError(f"unknown model {name!r}; shipped: {sorted(_MODELS)}",
                               key_path="model.name")
    make, defaults = _MODELS[name]
    extra = set(params) - set(defaults)
    if extra:
        raise ConfigError(f"parameters {sorted(extra)} do not belong to model {name!r}",
                          key_path="model")
    return make(**{**defaults, **params})


def build_functional(spec: dict, horizon: float) -> PathFunctional:
    """The shipped functional ``spec`` names.  Default probe times are
    relative to the horizon T: point(t1 = T) and product(T/2, T)."""
    name = spec.get("name")
    if name not in _FUNCTIONAL_KEYS:
        raise UnknownNameError(
            f"unknown functional {name!r}; shipped: {sorted(_FUNCTIONAL_KEYS)}",
            key_path="functional.name",
        )
    extra = set(spec) - {"name"} - _FUNCTIONAL_KEYS[name]
    if extra:
        raise ConfigError(f"parameters {sorted(extra)} do not belong to functional {name!r}",
                          key_path="functional")
    horizon = float(horizon)
    if name == "product":
        return product_functional(float(spec.get("t1", horizon / 2)), float(spec.get("t2", horizon)))
    if name == "point":
        return point_functional(float(spec.get("t1", horizon)))
    if name == "integral-square":
        return integral_functional(
            lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u, name="integral-square"
        )
    return smooth_max_functional(float(spec.get("beta", 2.0)))


def command_functional(cfg: ExperimentConfig) -> PathFunctional | None:
    """The functional ``cfg``'s command evaluates: its ``functional`` section,
    else the command's default; None for gap-stats without one."""
    spec = cfg.functional or _DEFAULT_FUNCTIONAL.get(cfg.command)
    return None if spec is None else build_functional(spec, cfg.grid["T"])


def _epsilon(cfg: ExperimentConfig, mesh: float) -> float:
    eps = cfg.mollifier["epsilon"]
    return float(cfg.mollifier["epsilon_mesh_multiple"]) * mesh if eps is None else float(eps)


def _check_entry(name, value, std_error, tolerance, passed, budget, seed) -> dict:
    return {
        "check": name,
        "value": None if value is None else float(value),
        "std_error": None if std_error is None else float(std_error),
        "tolerance": None if tolerance is None else float(tolerance),
        "passed": bool(passed),
        "budget": budget,
        "seed": seed,
    }


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _residual_result(name: str, column: str, report: ResidualReport, budget_keys, seed):
    """The check, CSV and extras of a ``ResidualReport``."""
    components = report.components
    checks = [
        _check_entry(
            name, report.residual, components.get("std_error"), report.tolerance, report.passed,
            {key: components.get(key) for key in budget_keys}, seed,
        )
    ]
    rows = [[report.residual, report.tolerance, int(report.passed)]]
    return checks, _csv_table([column, "tolerance", "passed"], rows), dict(components)


# ---------------------------------------------------------------------------
# command implementations: each returns (checks, csv_text, extra_summary)


def _run_weak_rate(cfg: ExperimentConfig):
    deltas = tuple(cfg.grid["deltas"])
    if cfg.reference["kind"] == "fine-grid":
        reference = FineGridReference(int(cfg.reference["factor"]))
    else:
        reference = ClosedFormReference()
    exp = RateExperiment(
        model=build_model(cfg.model),
        functional=command_functional(cfg),
        horizon=float(cfg.grid["T"]),
        deltas=deltas,
        n_base=int(cfg.budget["n_samples"]),
        reference=reference,
        seed=SeedSpec(cfg.seed),
        eps=cfg.mollifier["epsilon"],
        batch_size=int(cfg.budget["batch_size"]),
        threads=cfg.threads,
    )
    report = weak_rate_experiment(exp)
    if report.status != "ok":
        raise InsufficientSignalError(
            f"only {report.signal_rungs} signal rungs; need 3 for a rate fit"
        )
    lo, hi = cfg.check["rate_range"]
    passed = lo <= report.fitted_rate <= hi
    checks = [
        _check_entry(
            "weak-rate", report.fitted_rate,
            (report.rate_ci[1] - report.rate_ci[0]) / 4.0,
            None, passed,
            {"n_base": exp.n_base, "rungs": len(deltas)}, cfg.seed,
        )
    ]
    csv_text = report.to_csv()
    return checks, csv_text, report.summary()


def _run_covariance_bias(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    functional = command_functional(cfg)
    if cfg.functional and cfg.functional["name"] != "product":
        raise InvalidArgumentError(
            f"covariance-bias takes the product functional, not {functional.name}"
        )
    t1, t2 = functional.probe_times
    deltas = list(cfg.grid["deltas"])
    horizon = float(cfg.grid["T"])
    n_base = int(cfg.budget["n_samples"])
    rows, signal = [], []
    ladder = zip(ladder_steps(horizon, deltas), ladder_samples(n_base, deltas))
    for k, (n_steps, n) in enumerate(ladder):
        point = covariance_bias(
            model, t1, t2, make_uniform_grid(horizon, n_steps), n, SeedSpec(cfg.seed, k),
            batch_size=int(cfg.budget["batch_size"]), threads=cfg.threads,
        )
        rows.append([point.delta, point.n_samples, point.bias, point.std_error, point.excluded])
        if abs(point.bias) > 4.0 * point.std_error:
            signal.append(point)
    if len(signal) < 2:
        raise InsufficientSignalError("fewer than 2 signal rungs in the covariance ladder")
    ratios = [abs(p.bias) / p.delta for p in signal]
    spread = max(ratios) / min(ratios)
    ratio_max = float(cfg.check["ratio_max"])
    checks = [
        _check_entry(
            "covariance-bias-linearity", spread, None, ratio_max, spread <= ratio_max,
            {"n_base": n_base, "signal_rungs": len(signal)}, cfg.seed,
        )
    ]
    csv_text = _csv_table(["delta", "n_samples", "bias", "std_error", "excluded"], rows)
    return checks, csv_text, {"bias_over_delta": ratios, "spread": spread}


def _run_gap_stats(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    functional = command_functional(cfg)
    grid = make_uniform_grid(float(cfg.grid["T"]), int(cfg.grid["n_steps"]))
    fine = refine_grid(grid, int(cfg.grid["fine_factor"]))
    report = interpolation_gap_stats(
        model, grid, fine,
        int(cfg.budget["n_samples"]),
        SeedSpec(cfg.seed),
        functional=functional,
        n_probes=int(cfg.check["n_probes"]),
        threads=cfg.threads,
    )
    checks = [
        _check_entry(
            "gap-nodewise-mean", float(np.abs(report.probe_mean / np.maximum(report.probe_se, 1e-300)).max()),
            None, 4.0, report.probes_pass,
            {"n_samples": report.n_samples, "n_probes": int(report.probe_times.size)}, cfg.seed,
        )
    ]
    sup4_bound = cfg.check["sup4_bound"]
    if sup4_bound is None and model.name == "constant" and model.params["drift"] == 0.0:
        sup4_bound = 1.25 * 48.0 * (4.0 / 3.0) ** 4  # the pure-noise bound
    if sup4_bound is not None:
        checks.append(
            _check_entry(
                "gap-fourth-moment", report.sup4_over_delta2, report.sup4_se_over_delta2,
                float(sup4_bound), report.sup4_over_delta2 <= float(sup4_bound),
                {"n_samples": report.n_samples}, cfg.seed,
            )
        )
    if functional is not None:
        checks.append(
            _check_entry(
                "gap-pairing", report.pairing_mean, report.pairing_se,
                4.0 * report.pairing_se, report.pairing_pass,
                {"n_samples": report.n_samples}, cfg.seed,
            )
        )
    rows = [
        [float(t), float(m), float(s)]
        for t, m, s in zip(report.probe_times, report.probe_mean, report.probe_se)
    ]
    csv_text = _csv_table(["probe_time", "gap_mean", "gap_se"], rows)
    extra = {"sup4_over_delta2": report.sup4_over_delta2, "delta": report.delta}
    return checks, csv_text, extra


def _run_kolmogorov(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    fine = make_uniform_grid(float(cfg.grid["T"]), int(cfg.grid["n_steps"]))
    i_t = fine.index_near(float(cfg.check["t"]))
    prefix = DiscretePath(TimeGrid(fine.nodes[: i_t + 1]), np.full(i_t + 1, model.xi0))
    report = kolmogorov_residual(
        model, prefix, command_functional(cfg), _epsilon(cfg, fine.mesh),
        int(cfg.budget["n_inner"]),
        SeedSpec(cfg.seed), fine,
        n_outer=int(cfg.budget["n_outer"]),
        bump=cfg.check["bump"],
        allowance_rel=float(cfg.check["allowance_rel"]),
    )
    return _residual_result("kolmogorov-residual", "residual", report,
                            ("n_outer", "n_inner"), cfg.seed)


def _run_martingale(cfg: ExperimentConfig):
    fine = make_uniform_grid(float(cfg.grid["T"]), int(cfg.grid["n_steps"]))
    s, t = cfg.check["times"]
    report = martingale_gap(
        build_model(cfg.model), command_functional(cfg), _epsilon(cfg, fine.mesh),
        (float(s), float(t)),
        int(cfg.budget["n_samples"]),
        SeedSpec(cfg.seed), fine,
        n_inner=int(cfg.budget["n_inner"]),
    )
    return _residual_result("martingale-gap", "gap", report, ("n_samples", "n_inner"), cfg.seed)


def _run_ito(cfg: ExperimentConfig):
    meshes = cfg.check["meshes"]
    study = ito_rms_study(
        float(cfg.grid["T"]), [int(m) for m in meshes], int(cfg.budget["n_samples"]),
        SeedSpec(cfg.seed),
    )
    lo, hi = cfg.check["ratio_range"]
    passed = all(lo <= r <= hi for r in study["ratios"])
    checks = [
        _check_entry(
            "ito-rms-contraction", min(study["ratios"]), None, None, passed,
            {"n_samples": study["n_samples"], "meshes": len(meshes)}, cfg.seed,
        )
    ]
    rows = [[m, r] for m, r in zip(study["meshes"], study["rms"])]
    return checks, _csv_table(["mesh", "rms_residual"], rows), study


def _run_error_representation(cfg: ExperimentConfig):
    horizon = float(cfg.grid["T"])
    n_steps = int(cfg.grid["n_steps"])
    factor = int(cfg.grid["fine_factor"])
    n_outer, n_inner = int(cfg.budget["n_outer"]), int(cfg.budget["n_inner"])
    report = error_representation_sides(
        build_model(cfg.model), command_functional(cfg),
        _epsilon(cfg, horizon / (n_steps * factor)),
        make_uniform_grid(horizon, n_steps),
        n_outer, n_inner,
        SeedSpec(cfg.seed),
        fine_factor=factor,
        quad_per_interval=int(cfg.check["quad_per_interval"]),
        bump=cfg.check["bump"],
        inner_cap=int(cfg.budget["inner_cap"]),
        freeze=bool(cfg.check["freeze"]),
    )
    checks = [
        _check_entry(
            "error-representation", report.diff, report.diff_std_error,
            report.tolerance, report.passed,
            {"n_outer": n_outer, "n_inner": n_inner},
            cfg.seed,
        )
    ]
    rows = [[report.lhs.value, report.lhs.std_error, report.rhs.value,
             report.rhs.std_error, report.diff, report.diff_std_error]]
    csv_text = _csv_table(["lhs", "lhs_se", "rhs", "rhs_se", "diff", "diff_se"], rows)
    extra = {"lhs": report.lhs.value, "rhs": report.rhs.value, "diff": report.diff}
    return checks, csv_text, extra


def _run_mollifier_audit(cfg: ExperimentConfig):
    grid = make_uniform_grid(float(cfg.grid["T"]), int(cfg.grid["n_steps"]))
    eps = _epsilon(cfg, grid.mesh * 8)
    n_paths = int(cfg.check["n_paths"])
    report = audit(MollifierSpec(eps, int(cfg.mollifier["kernel_samples"])), grid,
                   SeedSpec(cfg.seed), n_paths)
    checks = [
        _check_entry("mollifier-contraction", None, None, None, report.contraction,
                     {"n_paths": n_paths}, cfg.seed),
        _check_entry("mollifier-linearity", report.linearity, None, 1e-10,
                     report.linearity <= 1e-10, {"n_paths": report.pairs}, cfg.seed),
        _check_entry("mollifier-non-anticipativity", None, None, None,
                     report.non_anticipative, {}, cfg.seed),
        _check_entry("mollifier-ramp", report.ramp, None, 1e-6, report.ramp <= 1e-6, {},
                     cfg.seed),
    ]
    rows = [[c["check"], c["value"] if c["value"] is not None else "", int(c["passed"])]
            for c in checks]
    return checks, _csv_table(["property", "value", "passed"], rows), {"epsilon": eps}


_RUNNERS = {
    "weak-rate": _run_weak_rate,
    "covariance-bias": _run_covariance_bias,
    "gap-stats": _run_gap_stats,
    "kolmogorov-check": _run_kolmogorov,
    "martingale-check": _run_martingale,
    "ito-check": _run_ito,
    "error-representation": _run_error_representation,
    "mollifier-audit": _run_mollifier_audit,
}


# exceptions a runner may raise for its experiment: summary status, exit status
_FAILURES = (
    (InvalidArgumentError, "invalid-experiment", 2),
    (InsufficientSignalError, "insufficient-signal", 3),
    (BudgetExceededError, "budget-cap", 3),
    (ArithmeticError, "numeric-failure", 4),
)


def _environment() -> dict:
    """What the run's numbers may depend on besides the config."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas": blas.describe(),
    }


def _write_once(path: Path, text: str):
    with path.open("x") as fh:
        fh.write(text)


def run(config: ExperimentConfig) -> int:
    """Execute the configured experiment and write its reports.

    Returns the process exit status; one summary line is printed per check.
    """
    out_dir = Path(config.out_dir or f"runs/{config.command}-seed{config.seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # the hash builds the model and functional, which may reject them
        manifest = {
            "config_hash": config.config_hash(),
            "seed": config.seed,
            "threads": config.threads,
            "command": config.command,
            "version": __version__,
            "environment": _environment(),
        }
        # written first, so a rerun into a used directory stops before any work
        _write_once(out_dir / "manifest.json",
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        checks, csv_text, extra = _RUNNERS[config.command](config)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        reason, code = next((r, c) for kind, r, c in _FAILURES if isinstance(exc, kind))
        _write_once(out_dir / "summary.json", json.dumps(
            {"status": reason, "detail": str(exc), "command": config.command}, indent=2,
            sort_keys=True) + "\n")
        print(f"FAIL {config.command}: {reason}: {exc}")
        return code

    summary = {
        "command": config.command,
        "status": "ok",
        "checks": checks,
        "extra": extra,
    }
    _write_once(out_dir / "report.csv", csv_text)
    _write_once(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")

    all_passed = True
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        all_passed &= c["passed"]
        val = "" if c["value"] is None else f" value={c['value']:.6g}"
        tol = "" if c["tolerance"] is None else f" tolerance={c['tolerance']:.6g}"
        print(f"{status} {c['check']}{val}{tol}")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="weakpathlab", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads; never changes numeric output")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
        config = parse_config(text)
        if config.command != args.command:
            raise ConfigError(
                f"config file is for {config.command!r}, not {args.command!r}", key_path="command"
            )
        if args.seed is not None:
            config.seed = _integer(args.seed, "--seed", 0)
        if args.out is not None:
            config.out_dir = args.out
        if args.threads is not None:
            config.threads = _integer(args.threads, "--threads", 1)
        return run(config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
