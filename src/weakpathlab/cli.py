"""Batch experiment runner.

``weakpathlab <command> --config <file> [--seed N] [--out DIR] [--threads K]``

The config is a single YAML document validated strictly: unknown keys are
errors, every referenced model or functional must be shipped, and all
randomness flows from the single seed.  ``--threads`` never changes any
numeric output.  Each run writes ``report.csv``, ``summary.json`` and a
``manifest.json`` with the config hash into its output directory; files are
never overwritten.

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
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core_paths import DiscretePath, PathMode, TimeGrid, make_uniform_grid, refine_grid, sup_norm
from .errors import (
    BudgetExceededError,
    ConfigError,
    InsufficientSignalError,
    InvalidArgumentError,
    UnknownNameError,
)
from .functional_calculus import (
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
from .mollifier import MollifierSpec, mollify
from .randomness import SeedSpec, sample_brownian
from .weak_error import (
    ClosedFormReference,
    FineGridReference,
    RateExperiment,
    covariance_bias,
    interpolation_gap_stats,
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

# documented defaults, filled in key by key at parse time; a config with no
# ``functional`` section gets the command's whole default functional below, so
# a user's functional never mixes with another functional's parameters
_COMMAND_DEFAULTS = {
    "weak-rate": {
        "grid": {"T": 1.0, "deltas": DEFAULT_DELTAS},
        "budget": {"n_samples": 1_000_000},
        "model": {"name": "ou"},
    },
    "covariance-bias": {
        "grid": {"T": 1.0, "deltas": DEFAULT_DELTAS},
        "budget": {"n_samples": 1_000_000},
        "model": {"name": "ou"},
    },
    "gap-stats": {
        "grid": {"T": 1.0, "n_steps": 8, "fine_factor": 64},
        "budget": {"n_samples": 20_000},
        "model": {"name": "constant"},
    },
    "kolmogorov-check": {
        "grid": {"T": 1.0, "n_steps": 128},
        "budget": {"n_inner": 1000, "n_outer": 1000},
        "model": {"name": "ou"},
        "check": {"t": 0.5},
    },
    "martingale-check": {
        "grid": {"T": 1.0, "n_steps": 128},
        "budget": {"n_samples": 256, "n_inner": 256},
        "model": {"name": "ou"},
        "check": {"times": [0.25, 0.75]},
    },
    "ito-check": {
        "grid": {"T": 1.0},
        "budget": {"n_samples": 10_000},
        "check": {"meshes": [16, 32, 64, 128, 256]},
    },
    "error-representation": {
        "grid": {"T": 0.25, "n_steps": 2, "fine_factor": 64},
        "budget": {"n_outer": 256, "n_inner": 256, "inner_cap": 200_000_000},
        "model": {"name": "ou"},
    },
    "mollifier-audit": {
        "grid": {"T": 1.0, "n_steps": 256},
        "check": {"n_paths": 1000},
    },
}

# the functional a command evaluates when the config has none; its parameters
# take build_functional's defaults relative to the horizon T
_DEFAULT_FUNCTIONAL = {
    "weak-rate": {"name": "product"},
    "covariance-bias": {"name": "product"},
    "kolmogorov-check": {"name": "point"},
    "martingale-check": {"name": "point"},
    "error-representation": {"name": "point"},
}

_POSITIVE_BUDGET_KEYS = ("n_samples", "n_inner", "n_outer", "inner_cap", "batch_size")

_ALLOWED = {
    "": {"command", "seed", "out_dir", "threads", "model", "functional", "grid",
         "mollifier", "budget", "check", "reference"},
    "model": {"name", "theta", "sigma", "xi0", "a", "c", "drift", "diffusion"},
    "functional": {"name", "t1", "t2", "beta"},
    "grid": {"T", "deltas", "n_steps", "fine_factor"},
    "mollifier": {"epsilon", "epsilon_mesh_multiple", "kernel_samples"},
    "budget": {"n_samples", "n_inner", "n_outer", "inner_cap", "batch_size"},
    "check": {"t", "times", "meshes", "rate_range", "ratio_max", "ratio_range",
              "quad_per_interval", "sup4_bound", "n_paths", "allowance_rel",
              "bump", "freeze", "n_probes"},
    "reference": {"kind", "factor"},
}

_MODEL_KEYS = {
    "ou": {"theta", "sigma", "xi0"},
    "sine": {"a", "c", "xi0"},
    "constant": {"drift", "diffusion", "xi0"},
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


def _reject_unknown(section: str, obj: dict):
    allowed = _ALLOWED[section]
    for key in obj:
        if key not in allowed:
            prefix = f"{section}." if section else ""
            raise ConfigError("unknown key", key_path=f"{prefix}{key}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, filling documented defaults."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    _reject_unknown("", doc)
    for section in ("model", "functional", "grid", "mollifier", "budget", "check", "reference"):
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError("must be a mapping", key_path=section)
        _reject_unknown(section, sub)

    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}", key_path="command")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}", key_path="seed")
    threads = doc.get("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}", key_path="threads")

    cfg = ExperimentConfig(
        command=command,
        seed=seed,
        threads=threads,
        out_dir=doc.get("out_dir"),
        model=dict(doc.get("model", {})),
        functional=dict(doc.get("functional", {})),
        grid=dict(doc.get("grid", {})),
        mollifier=dict(doc.get("mollifier", {})),
        budget=dict(doc.get("budget", {})),
        check=dict(doc.get("check", {})),
        reference=dict(doc.get("reference", {})),
    )
    for section, defaults in _COMMAND_DEFAULTS.get(command, {}).items():
        target = getattr(cfg, section)
        for key, value in defaults.items():
            target.setdefault(key, list(value) if isinstance(value, list) else value)
    for key in _POSITIVE_BUDGET_KEYS:
        value = cfg.budget.get(key)
        if value is not None and (not isinstance(value, int) or value < 1):
            raise ConfigError(f"must be a positive integer, got {value!r}",
                              key_path=f"budget.{key}")
    # build eagerly so typos and invalid parameter values fail at parse time
    try:
        if cfg.model:
            build_model(cfg.model)
        command_functional(cfg)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model or functional parameter: {exc}") from exc
    ref_kind = cfg.reference.get("kind", "closed-form")
    if ref_kind not in ("closed-form", "fine-grid"):
        raise ConfigError(f"unknown reference kind {ref_kind!r}", key_path="reference.kind")
    return cfg


def build_model(spec: dict) -> SdeModel:
    name = spec.get("name")
    if name not in _MODEL_KEYS:
        raise UnknownNameError(f"unknown model {name!r}; shipped: {sorted(_MODEL_KEYS)}",
                               key_path="model.name")
    extra = set(spec) - {"name"} - _MODEL_KEYS[name]
    if extra:
        raise ConfigError(f"parameters {sorted(extra)} do not belong to model {name!r}",
                          key_path="model")
    if name == "ou":
        return ou_model(spec.get("theta", 1.0), spec.get("sigma", 1.0), spec.get("xi0", 1.0))
    if name == "sine":
        return sine_model(spec.get("a", 0.5), spec.get("c", 1.0), spec.get("xi0", 0.5))
    return constant_model(spec.get("drift", 0.0), spec.get("diffusion", 1.0), spec.get("xi0", 0.0))


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
    if "epsilon" in cfg.mollifier:
        return float(cfg.mollifier["epsilon"])
    mult = cfg.mollifier.get("epsilon_mesh_multiple", 2.0)
    return float(mult) * mesh


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


# ---------------------------------------------------------------------------
# command implementations: each returns (checks, csv_text, extra_summary)


def _run_weak_rate(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    functional = command_functional(cfg)
    deltas = tuple(cfg.grid.get("deltas", DEFAULT_DELTAS))
    horizon = float(cfg.grid.get("T", 1.0))
    if cfg.reference.get("kind", "closed-form") == "fine-grid":
        reference = FineGridReference(int(cfg.reference.get("factor", 64)))
    else:
        reference = ClosedFormReference()
    exp = RateExperiment(
        model=model,
        functional=functional,
        horizon=horizon,
        deltas=deltas,
        n_base=int(cfg.budget.get("n_samples", 1_000_000)),
        reference=reference,
        seed=SeedSpec(cfg.seed),
        eps=cfg.mollifier.get("epsilon"),
        batch_size=int(cfg.budget.get("batch_size", 1 << 17)),
        threads=cfg.threads,
    )
    report = weak_rate_experiment(exp)
    if report.status != "ok":
        raise InsufficientSignalError(
            f"only {report.signal_rungs} signal rungs; need 3 for a rate fit"
        )
    lo, hi = cfg.check.get("rate_range", [0.7, 1.3])
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
    if cfg.functional.get("name", "product") != "product":
        raise InvalidArgumentError(
            f"covariance-bias takes the product functional, not {functional.name}"
        )
    t1, t2 = functional.probe_times
    deltas = list(cfg.grid.get("deltas", DEFAULT_DELTAS))
    horizon = float(cfg.grid.get("T", 1.0))
    n_base = int(cfg.budget.get("n_samples", 1_000_000))
    rows, signal = [], []
    for k, delta in enumerate(deltas):
        grid = make_uniform_grid(horizon, round(horizon / delta))
        n = int(np.ceil(n_base * (deltas[0] / delta) ** 2))
        point = covariance_bias(
            model, t1, t2, grid, n, SeedSpec(cfg.seed, k),
            batch_size=int(cfg.budget.get("batch_size", 1 << 17)), threads=cfg.threads,
        )
        rows.append([point.delta, point.n_samples, point.bias, point.std_error, point.excluded])
        if abs(point.bias) > 4.0 * point.std_error:
            signal.append(point)
    if len(signal) < 2:
        raise InsufficientSignalError("fewer than 2 signal rungs in the covariance ladder")
    ratios = [abs(p.bias) / p.delta for p in signal]
    spread = max(ratios) / min(ratios)
    ratio_max = float(cfg.check.get("ratio_max", 3.0))
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
    horizon = float(cfg.grid.get("T", 1.0))
    n_steps = int(cfg.grid.get("n_steps", 8))
    factor = int(cfg.grid.get("fine_factor", 64))
    grid = make_uniform_grid(horizon, n_steps)
    fine = refine_grid(grid, factor)
    report = interpolation_gap_stats(
        model, grid, fine,
        int(cfg.budget.get("n_samples", 20_000)),
        SeedSpec(cfg.seed),
        functional=functional,
        n_probes=int(cfg.check.get("n_probes", 16)),
        threads=cfg.threads,
    )
    checks = [
        _check_entry(
            "gap-nodewise-mean", float(np.abs(report.probe_mean / np.maximum(report.probe_se, 1e-300)).max()),
            None, 4.0, report.probes_pass,
            {"n_samples": report.n_samples, "n_probes": int(report.probe_times.size)}, cfg.seed,
        )
    ]
    pure_noise = model.name == "constant" and model.params.get("drift") == 0.0
    sup4_bound = cfg.check.get("sup4_bound", 1.25 * 48.0 * (4.0 / 3.0) ** 4 if pure_noise else None)
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
    functional = command_functional(cfg)
    horizon = float(cfg.grid.get("T", 1.0))
    n_steps = int(cfg.grid.get("n_steps", 128))
    fine = make_uniform_grid(horizon, n_steps)
    t = float(cfg.check.get("t", 0.5))
    i_t = fine.index_near(t)
    prefix = DiscretePath(
        TimeGrid(fine.nodes[: i_t + 1]),
        np.full(i_t + 1, model.xi0),
        PathMode.LINEAR,
    )
    eps = _epsilon(cfg, fine.mesh)
    report = kolmogorov_residual(
        model, prefix, functional, eps,
        int(cfg.budget.get("n_inner", 1000)),
        SeedSpec(cfg.seed), fine,
        n_outer=int(cfg.budget.get("n_outer", 1000)),
        bump=cfg.check.get("bump"),
        allowance_rel=float(cfg.check.get("allowance_rel", 0.1)),
    )
    checks = [
        _check_entry(
            "kolmogorov-residual", report.residual, report.components["std_error"],
            report.tolerance, report.passed,
            {"n_outer": report.components["n_outer"], "n_inner": report.components["n_inner"]},
            cfg.seed,
        )
    ]
    rows = [[report.residual, report.tolerance, int(report.passed)]]
    return checks, _csv_table(["residual", "tolerance", "passed"], rows), dict(report.components)


def _run_martingale(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    functional = command_functional(cfg)
    horizon = float(cfg.grid.get("T", 1.0))
    fine = make_uniform_grid(horizon, int(cfg.grid.get("n_steps", 128)))
    times = cfg.check.get("times", [0.25, 0.75])
    report = martingale_gap(
        model, functional, _epsilon(cfg, fine.mesh),
        (float(times[0]), float(times[1])),
        int(cfg.budget.get("n_samples", 256)),
        SeedSpec(cfg.seed), fine,
        n_inner=int(cfg.budget.get("n_inner", 256)),
    )
    checks = [
        _check_entry(
            "martingale-gap", report.residual, report.components.get("std_error"),
            report.tolerance, report.passed,
            {"n_samples": report.components.get("n_samples"),
             "n_inner": report.components.get("n_inner")},
            cfg.seed,
        )
    ]
    rows = [[report.residual, report.tolerance, int(report.passed)]]
    return checks, _csv_table(["gap", "tolerance", "passed"], rows), dict(report.components)


def _run_ito(cfg: ExperimentConfig):
    horizon = float(cfg.grid.get("T", 1.0))
    meshes = cfg.check.get("meshes", [16, 32, 64, 128, 256])
    study = ito_rms_study(
        horizon, [int(m) for m in meshes], int(cfg.budget.get("n_samples", 10_000)),
        SeedSpec(cfg.seed),
    )
    lo, hi = cfg.check.get("ratio_range", [1.2, 1.7])
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
    model = build_model(cfg.model)
    functional = command_functional(cfg)
    horizon = float(cfg.grid.get("T", 0.25))
    n_steps = int(cfg.grid.get("n_steps", 2))
    factor = int(cfg.grid.get("fine_factor", 64))
    coarse = make_uniform_grid(horizon, n_steps)
    eps = _epsilon(cfg, horizon / (n_steps * factor))
    report = error_representation_sides(
        model, functional, eps, coarse,
        int(cfg.budget.get("n_outer", 256)),
        int(cfg.budget.get("n_inner", 256)),
        SeedSpec(cfg.seed),
        fine_factor=factor,
        quad_per_interval=int(cfg.check.get("quad_per_interval", 4)),
        bump=cfg.check.get("bump"),
        inner_cap=int(cfg.budget.get("inner_cap", 200_000_000)),
        freeze=bool(cfg.check.get("freeze", True)),
    )
    checks = [
        _check_entry(
            "error-representation", report.diff, report.diff_std_error,
            4.0 * report.diff_std_error, report.passed,
            {"n_outer": int(cfg.budget.get("n_outer", 256)),
             "n_inner": int(cfg.budget.get("n_inner", 256))},
            cfg.seed,
        )
    ]
    rows = [[report.lhs.value, report.lhs.std_error, report.rhs.value,
             report.rhs.std_error, report.diff, report.diff_std_error]]
    csv_text = _csv_table(["lhs", "lhs_se", "rhs", "rhs_se", "diff", "diff_se"], rows)
    extra = {"lhs": report.lhs.value, "rhs": report.rhs.value, "diff": report.diff}
    return checks, csv_text, extra


def _run_mollifier_audit(cfg: ExperimentConfig):
    horizon = float(cfg.grid.get("T", 1.0))
    n_steps = int(cfg.grid.get("n_steps", 256))
    grid = make_uniform_grid(horizon, n_steps)
    eps = _epsilon(cfg, grid.mesh * 8)
    spec = MollifierSpec(eps, int(cfg.mollifier.get("kernel_samples", 64)))
    n_paths = int(cfg.check.get("n_paths", 1000))
    seed = SeedSpec(cfg.seed)

    contraction_ok = True
    linearity_err = 0.0
    for i in range(n_paths):
        w = sample_brownian(grid, seed.with_stream(i))
        p = w.path
        mp = mollify(spec, p)
        if sup_norm(mp) > sup_norm(p):
            contraction_ok = False
        if i < 32:
            q = sample_brownian(grid, seed.with_stream(n_paths + i)).path
            lin = mollify(
                spec, DiscretePath(grid, 2.0 * p.values - 3.0 * q.values, PathMode.LINEAR)
            )
            combo = 2.0 * mp.values - 3.0 * mollify(spec, q).values
            linearity_err = max(linearity_err, float(np.abs(lin.values - combo).max()))

    # non-anticipativity: edit the path after time t, values at <= t frozen
    w = sample_brownian(grid, seed.with_stream(2 * n_paths)).path
    edited = w.values.copy()
    cut = n_steps // 2
    edited[cut + 1 :] += 7.0
    before = mollify(spec, w).values[: cut + 1]
    after = mollify(spec, DiscretePath(grid, edited, PathMode.LINEAR)).values[: cut + 1]
    nonanticipative_exact = bool(np.array_equal(before, after))

    ramp = DiscretePath(grid, grid.nodes.copy(), PathMode.LINEAR)
    mr = mollify(spec, ramp).values
    inside = grid.nodes >= eps
    ramp_err = float(np.abs(mr[inside] - (grid.nodes[inside] - eps / 2.0)).max())

    checks = [
        _check_entry("mollifier-contraction", None, None, None, contraction_ok,
                     {"n_paths": n_paths}, cfg.seed),
        _check_entry("mollifier-linearity", linearity_err, None, 1e-10,
                     linearity_err <= 1e-10, {"n_paths": 32}, cfg.seed),
        _check_entry("mollifier-non-anticipativity", None, None, None,
                     nonanticipative_exact, {}, cfg.seed),
        _check_entry("mollifier-ramp", ramp_err, None, 1e-6, ramp_err <= 1e-6, {}, cfg.seed),
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


def _write_once(path: Path, text: str):
    with path.open("x") as fh:
        fh.write(text)


def run(config: ExperimentConfig) -> int:
    """Execute the configured experiment and write its reports.

    Returns the process exit status; one summary line is printed per check.
    """
    out_dir = Path(config.out_dir or f"runs/{config.command}-seed{config.seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # written first, so a rerun into a used directory stops before any work
    manifest = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "threads": config.threads,
        "command": config.command,
        "version": __version__,
    }
    _write_once(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    try:
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
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative", key_path="--seed")
            config.seed = args.seed
        if args.out is not None:
            config.out_dir = args.out
        if args.threads is not None:
            config.threads = max(1, args.threads)
        return run(config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
