import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import weakpathlab
from weakpathlab import cli
from weakpathlab.cli import COMMANDS, build_functional, build_model, main, parse_config, run
from weakpathlab.errors import ConfigError, UnknownNameError

MINIMAL_WEAK_RATE = """
command: weak-rate
seed: 3
budget:
  n_samples: 2000
"""


class TestParseConfig:
    def test_minimal_weak_rate_defaults(self):
        cfg = parse_config(MINIMAL_WEAK_RATE)
        assert cfg.command == "weak-rate"
        assert cfg.seed == 3
        assert cfg.threads == 1
        # documented default ladder 2^-2 .. 2^-6 and the delta^-2 sample rule base
        assert cfg.grid["deltas"] == [2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
        assert cfg.budget["n_samples"] == 2000  # explicit value wins over the default
        assert parse_config("command: weak-rate\n").budget["n_samples"] == 1_000_000

    def test_budget_positivity(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command: ito-check\nbudget:\n  n_samples: 0\n")
        assert err.value.key_path == "budget.n_samples"
        with pytest.raises(ConfigError) as err:
            parse_config("command: kolmogorov-check\nbudget:\n  n_inner: -3\n")
        assert err.value.key_path == "budget.n_inner"

    @pytest.mark.parametrize(
        "text, key_path",
        [("threads: 0", "threads"), ("threads: true", "threads"), ("seed: true", "seed"),
         ("seed: -1", "seed"), ("budget: {n_samples: true}", "budget.n_samples"),
         ("budget: {n_samples: 2.5}", "budget.n_samples")],
    )
    def test_integer_keys_reject_bools_and_out_of_range(self, text, key_path):
        with pytest.raises(ConfigError) as err:
            parse_config(f"command: ito-check\n{text}\n")
        assert err.value.key_path == key_path

    @pytest.mark.parametrize(
        "command, section, key_path",
        [("kolmogorov-check", "mollifier: {kernel_samples: 8}", "mollifier.kernel_samples"),
         ("gap-stats", "budget: {batch_size: 5}", "budget.batch_size"),
         ("ito-check", "reference: {kind: fine-grid}", "reference.kind")],
    )
    def test_key_the_command_does_not_read(self, command, section, key_path):
        # such a key would change nothing but the config hash
        with pytest.raises(ConfigError) as err:
            parse_config(f"command: {command}\n{section}\n")
        assert err.value.key_path == key_path

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command: ito-check\nseeed: 3\n")
        assert "seeed" in str(err.value)

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command: ito-check\nbudget:\n  n_sample: 5\n")
        assert err.value.key_path == "budget.n_sample"

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("command: ito-check\nseed: -5\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config("command: frobnicate\n")

    def test_unknown_functional_name(self):
        text = "command: weak-rate\nfunctional:\n  name: runmax\n"
        with pytest.raises(UnknownNameError):
            parse_config(text)

    def test_unknown_model_name(self):
        with pytest.raises(UnknownNameError):
            parse_config("command: weak-rate\nmodel:\n  name: gbm\n")

    def test_foreign_model_parameter_rejected(self):
        text = "command: weak-rate\nmodel:\n  name: ou\n  drift: 1.0\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_not_yaml(self):
        with pytest.raises(ConfigError):
            parse_config("{::}")

    def test_scalar_document_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("42")

    def test_readme_schema_is_the_table(self):
        # README's example parses, and its per-command keys and defaults are
        # those the parser fills in
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("### Config schema")[1].split("```yaml\n")[1:3]
        example, table = (block.split("```")[0] for block in blocks)
        assert parse_config(example).command == "weak-rate"
        assert yaml.safe_load(table) == {
            command: {k: v for k, v in sections.items() if k != "model"}
            for command, sections in cli._COMMAND_DEFAULTS.items()
        }

    @pytest.mark.parametrize(
        "command, key, value",
        [
            pytest.param(command, key, value, id=f"{command}-{key}-{json.dumps(value)}")
            for command, sections in cli._COMMAND_DEFAULTS.items()
            for key, default in sections.get("check", {}).items()
            for value in (
                [1, "yes", None] if isinstance(default, bool)
                else [5, [0.5, "x"], [0.5], [0.5, True]]
                + ([[0.5, 1.0, 2.0]] if key in cli._PAIRS else [])
                + ([[8, 0], [8, 16.7], [-8, 16], [8, 16.0]] if isinstance(default[0], int) else [])
                if isinstance(default, list)
                else ["abc", True, [0.5]] if default is None
                else ["abc", True, None, [0.5]]
                + ([0, -1, 2.5, 4.0] if isinstance(default, int) else [])
            )
        ],
    )
    def test_check_value_of_the_wrong_shape(self, command, key, value):
        # each check value must have the shape of its default in the table,
        # and an integer >= 1 where the default (or its entry) is an integer;
        # a bad list entry is named by its index, as in check.meshes[1]
        with pytest.raises(ConfigError) as err:
            parse_config(f"command: {command}\ncheck: {{{key}: {json.dumps(value)}}}\n")
        assert err.value.key_path.split("[")[0] == f"check.{key}"

    def test_check_values_of_the_right_shape(self):
        cfg = parse_config("command: kolmogorov-check\ncheck: {t: 1, bump: 0.01, allowance_rel: 1}\n")
        assert cfg.check == {"t": 1.0, "bump": 0.01, "allowance_rel": 1.0}
        cfg = parse_config("command: ito-check\ncheck: {meshes: [8, 16], ratio_range: [1, 2]}\n")
        assert cfg.check == {"meshes": [8, 16], "ratio_range": [1.0, 2.0]}
        assert parse_config("command: gap-stats\ncheck: {sup4_bound: null}\n").check[
            "sup4_bound"] is None

    @pytest.mark.parametrize("name", ["product", "point", "integral-square", "smooth-max"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_shipped_functional_parses_unmerged(self, command, name):
        # a functional section is taken whole: no default parameters of
        # another functional are merged into it
        cfg = parse_config(f"command: {command}\nfunctional:\n  name: {name}\n")
        assert cfg.functional == {"name": name}


class TestBuilders:
    def test_build_ou(self):
        m = build_model({"name": "ou", "theta": 2.0, "sigma": 0.5, "xi0": 1.0})
        assert m.name == "ou" and m.params["theta"] == 2.0

    def test_build_functionals(self):
        assert build_functional({"name": "product", "t1": 0.2, "t2": 0.6}, 1.0).probe_times == (0.2, 0.6)
        assert build_functional({"name": "point", "t1": 0.9}, 1.0).probe_times == (0.9,)
        assert build_functional({"name": "integral-square"}, 1.0).batch_eval is not None
        assert build_functional({"name": "smooth-max", "beta": 3.0}, 1.0).name == "smooth_max(3.0)"

    @pytest.mark.parametrize("horizon", [0.25, 1.0, 2.0])
    def test_probe_defaults_follow_the_horizon(self, horizon):
        assert build_functional({"name": "point"}, horizon).probe_times == (horizon,)
        assert build_functional({"name": "product"}, horizon).probe_times == (horizon / 2, horizon)
        assert build_functional({"name": "product", "t1": 0.1}, horizon).probe_times == (0.1, horizon)

    @pytest.mark.parametrize(
        "section", ["model: {name: ou, sigma: -1}", "model: {name: ou, theta: abc}",
                    "functional: {name: smooth-max, beta: -1}"],
    )
    def test_invalid_parameter_value_is_a_config_error(self, tmp_path, section):
        with pytest.raises(ConfigError):
            parse_config(f"command: weak-rate\n{section}\n")
        cfg = write_config(tmp_path, f"command: weak-rate\n{section}\n")
        assert main(["weak-rate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def write_config(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRun:
    def test_ito_check_writes_reports(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "command: ito-check\nseed: 7\nbudget:\n  n_samples: 4000\n",
        )
        out = tmp_path / "run"
        code = main(["ito-check", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        entry = summary["checks"][0]
        assert set(entry) == {"check", "value", "std_error", "tolerance", "passed", "budget", "seed"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7 and len(manifest["config_hash"]) == 64
        assert "PASS" in capsys.readouterr().out

    def test_manifest_records_the_environment(self, tmp_path):
        cfg = write_config(tmp_path, "command: ito-check\nseed: 7\nbudget:\n  n_samples: 100\n")
        out = tmp_path / "run"
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "platform", "cpu_count", "blas"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert set(env["blas"]) == {"name", "version", "threads"}
        assert env["blas"]["threads"] in (1, "unmanaged")
        assert manifest["config_hash"] == parse_config(Path(cfg).read_text()).config_hash()

    def test_refuses_to_overwrite(self, tmp_path):
        cfg = write_config(tmp_path, "command: ito-check\nseed: 7\nbudget:\n  n_samples: 1000\n")
        out = tmp_path / "run"
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 0
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 2

    def test_used_directory_stops_before_the_runner(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "command: ito-check\nseed: 7\nbudget:\n  n_samples: 1000\n")
        out = tmp_path / "run"
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setitem(cli._RUNNERS, "ito-check",
                            lambda config: pytest.fail("runner called for a used directory"))
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "flags", [["--threads", "0"], ["--threads", "-3"], ["--seed", "-1"]]
    )
    def test_bad_integer_flag_exits_2(self, tmp_path, flags):
        cfg = write_config(tmp_path, "command: ito-check\nbudget:\n  n_samples: 100\n")
        out = tmp_path / "run"
        assert main(["ito-check", "--config", cfg, "--out", str(out), *flags]) == 2
        assert not out.exists()

    def test_check_value_of_the_wrong_shape_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "command: ito-check\ncheck: {ratio_range: 5}\n")
        out = tmp_path / "run"
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 2
        assert "check.ratio_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key_path",
        [
            ("command: gap-stats\nbudget: {n_samples: 50}\ngrid: {n_steps: 2, fine_factor: 4}\n"
             "check: {n_probes: 0}\n", "check.n_probes"),
            ("command: error-representation\nbudget: {n_outer: 2, n_inner: 2}\n"
             "check: {quad_per_interval: 0}\n", "check.quad_per_interval"),
            ("command: ito-check\nbudget: {n_samples: 100}\ncheck: {meshes: [0, 16]}\n",
             "check.meshes[0]"),
            ("command: ito-check\nbudget: {n_samples: 100}\ncheck: {meshes: [8, 16.7]}\n",
             "check.meshes[1]"),
        ],
        ids=["gap-stats-n_probes-0", "error-representation-quad-0", "ito-mesh-0", "ito-mesh-16.7"],
    )
    def test_integer_check_value_out_of_range_exits_2(self, tmp_path, capsys, text, key_path):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        command = text.split("\n")[0].split(": ")[1]
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert key_path in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, key_path",
        [
            ("kolmogorov-check", "mollifier: {epsilon: abc}", "mollifier.epsilon"),
            ("weak-rate", "mollifier: {epsilon: abc}", "mollifier.epsilon"),
            ("mollifier-audit", "mollifier: {epsilon: abc}", "mollifier.epsilon"),
            ("mollifier-audit", "mollifier: {kernel_samples: 2.5}", "mollifier.kernel_samples"),
            ("gap-stats", "grid: {T: abc}", "grid.T"),
            ("weak-rate", "grid: {deltas: abc}", "grid.deltas"),
            ("covariance-bias", "grid: {deltas: [0.5, x]}", "grid.deltas"),
            ("error-representation", "grid: {n_steps: 0}", "grid.n_steps"),
            ("gap-stats", "grid: {fine_factor: true}", "grid.fine_factor"),
            ("weak-rate", "reference: {kind: 5}", "reference.kind"),
            ("weak-rate", "reference: {factor: 0}", "reference.factor"),
        ],
    )
    def test_section_value_of_the_wrong_shape_exits_2(self, tmp_path, capsys, command, section,
                                                      key_path):
        # every value of grid, mollifier, budget, check and reference has
        # its default's shape, checked before anything runs
        cfg = write_config(tmp_path, f"command: {command}\n{section}\n")
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert key_path in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["weak-rate", "covariance-bias"])
    @pytest.mark.parametrize(
        "deltas",
        [[0.5, 0.25, 0.0], [0.5, 0.25, -0.125], [0.25, 0.5, 0.125], [0.5, 0.25, 0.25],
         [0.5, 0.25, ".nan"], [0.3, 0.2, 0.1], [2.0, 0.5, 0.25]],
        ids=["zero", "negative", "increasing", "repeated", "nan", "not-dividing", "above-T"],
    )
    def test_delta_ladder_rule_exits_2(self, tmp_path, command, deltas):
        # every delta finite and > 0, strictly decreasing and dividing T,
        # checked before any rung runs and without a warning
        cfg = write_config(tmp_path, f"command: {command}\nbudget: {{n_samples: 20}}\n"
                           f"grid: {{deltas: [{', '.join(map(str, deltas))}]}}\n")
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "invalid-experiment"
        assert "delta" in summary["detail"]
        assert not (out / "report.csv").exists()

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "command: ito-check\nseed: 7\n")
        assert main(["weak-rate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_insufficient_signal_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: weak-rate\nseed: 3\nbudget:\n  n_samples: 10\n",
        )
        out = tmp_path / "run"
        code = main(["weak-rate", "--config", cfg, "--out", str(out)])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "insufficient-signal"

    def test_covariance_ladder_below_noise_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: covariance-bias\nseed: 3\nbudget:\n  n_samples: 40\n"
            "grid:\n  deltas: [0.25, 0.125, 0.0625]\n",
        )
        out = tmp_path / "run"
        assert main(["covariance-bias", "--config", cfg, "--out", str(out)]) == 3

    def test_invalid_experiment_combination_exit_code(self, tmp_path):
        # mollified functional with the (default) closed-form reference
        cfg = write_config(
            tmp_path,
            "command: weak-rate\nseed: 3\nmollifier:\n  epsilon: 0.5\n",
        )
        assert main(["weak-rate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_budget_cap_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: error-representation\nseed: 3\n"
            "budget:\n  n_outer: 4000\n  n_inner: 4000\n  inner_cap: 1000\n",
        )
        out = tmp_path / "run"
        code = main(["error-representation", "--config", cfg, "--out", str(out)])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "budget-cap"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "theta, code, status",
        [(5000.0, 1, "ok"), (50000.0, 4, "numeric-failure")],
        ids=["infinite-tolerance-fails", "overflow-exits-4"],
    )
    def test_stiff_kolmogorov_check(self, tmp_path, theta, code, status):
        # at theta 5000 the residual is finite but its SE overflows, so the
        # tolerance is inf and must not pass; at 50000 the continuation
        # itself overflows
        cfg = write_config(
            tmp_path,
            f"command: kolmogorov-check\nmodel: {{name: ou, theta: {theta}}}\n"
            "grid: {n_steps: 1024}\nbudget: {n_inner: 4, n_outer: 2}\n",
        )
        out = tmp_path / "run"
        assert main(["kolmogorov-check", "--config", cfg, "--out", str(out)]) == code
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == status
        if code == 1:
            assert summary["checks"][0]["tolerance"] == float("inf")
            assert summary["checks"][0]["passed"] is False

    @pytest.mark.parametrize(
        "command, text, code, status",
        [
            ("kolmogorov-check", "mollifier: {epsilon: .inf}", 2, "invalid-experiment"),
            ("kolmogorov-check", "mollifier: {epsilon: 1.0e+300}", 3, "insufficient-signal"),
            ("kolmogorov-check", "mollifier: {epsilon: 100.0}", 3, "insufficient-signal"),
            ("kolmogorov-check", "functional: {name: point, t1: 0.25}", 3, "insufficient-signal"),
            ("martingale-check", "mollifier: {epsilon: .inf}", 2, "invalid-experiment"),
            ("martingale-check", "check: {times: [0.5, 0.5]}", 3, "insufficient-signal"),
            ("martingale-check", "functional: {name: point, t1: 0.25}\n"
             "check: {times: [0.5, 0.75]}", 3, "insufficient-signal"),
            ("kolmogorov-check", "budget: {n_inner: 1000, n_outer: 1}", 3, "insufficient-signal"),
            ("martingale-check", "budget: {n_samples: 1, n_inner: 4}", 3, "insufficient-signal"),
            ("error-representation", "budget: {n_outer: 1, n_inner: 2}", 3,
             "insufficient-signal"),
        ],
        ids=["kolmogorov-eps-inf", "kolmogorov-eps-1e300", "kolmogorov-eps-100",
             "kolmogorov-probe-before-t", "martingale-eps-inf", "martingale-s=t",
             "martingale-probe-before-s", "kolmogorov-one-batch", "martingale-one-sample",
             "error-representation-one-sample"],
    )
    def test_a_check_that_tests_nothing_does_not_pass(self, tmp_path, command, text, code,
                                                      status):
        # each of these once printed PASS value=0 tolerance=0 and exited 0:
        # f_eps read no node after the conditioning time.  One outer sample
        # gives SE 0, so the tolerance was the allowance alone: one batch
        # passed kolmogorov-check at seed 1.  A budget given here replaces
        # the base's (the later key of a YAML mapping wins)
        cfg = write_config(tmp_path, f"command: {command}\nseed: 1\n"
                           f"{_MATRIX_BASE[command]}{text}\n")
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == status and summary["detail"]

    @pytest.mark.parametrize(
        "command, text",
        [
            ("kolmogorov-check", "check: {bump: 0.0}"),
            ("kolmogorov-check", "check: {bump: .nan}"),
            ("kolmogorov-check", "check: {bump: -0.01}"),
            ("kolmogorov-check", "check: {bump: .inf}"),
            ("kolmogorov-check", "check: {allowance_rel: .nan}"),
            ("kolmogorov-check", "check: {allowance_rel: -1.0}"),
            ("kolmogorov-check", "check: {allowance_rel: .inf}"),
            ("error-representation", "check: {bump: 0.0}"),
            ("error-representation", "check: {bump: .nan}"),
            ("error-representation", "check: {bump: -0.01}"),
        ],
        ids=["kolmogorov-bump-0", "kolmogorov-bump-nan", "kolmogorov-bump-negative",
             "kolmogorov-bump-inf", "kolmogorov-allowance-nan", "kolmogorov-allowance-negative",
             "kolmogorov-allowance-inf", "error-representation-bump-0",
             "error-representation-bump-nan", "error-representation-bump-negative"],
    )
    def test_bump_and_allowance_rules_exit_2(self, tmp_path, command, text):
        # a bump must be finite and > 0 and allowance_rel finite and >= 0;
        # bump 0 or nan once exited 4, bump -0.01 or allowance_rel -1 passed,
        # and allowance_rel nan failed with tolerance nan
        cfg = write_config(tmp_path, f"command: {command}\nseed: 1\n"
                           f"{_MATRIX_BASE[command]}{text}\n")
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "invalid-experiment" and summary["detail"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_scheme_path_exits_4(self, tmp_path):
        # X~ overflows, so a quadrature point's default bump is inf: only a
        # caller's bump is checked, and the overflow stays a numeric failure
        cfg = write_config(tmp_path, "command: error-representation\nseed: 1\n"
                           "model: {name: ou, theta: 1.0e+25}\n"
                           f"{_MATRIX_BASE['error-representation']}")
        out = tmp_path / "run"
        assert main(["error-representation", "--config", cfg, "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "numeric-failure"

    def test_invalid_experiment_writes_summary(self, tmp_path):
        # t1 = 1 lies beyond the default T = 0.25
        cfg = write_config(tmp_path,
                           "command: error-representation\nfunctional: {name: point, t1: 1.0}\n")
        out = tmp_path / "run"
        assert main(["error-representation", "--config", cfg, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "invalid-experiment"
        assert "probe times" in summary["detail"]

    def test_infinite_beta_is_a_config_error(self, tmp_path, capsys):
        # beta = inf once made every smooth-max value NaN: exit 4, numeric-failure
        cfg = write_config(tmp_path, "command: kolmogorov-check\n"
                           "functional: {name: smooth-max, beta: .inf}\n"
                           "budget: {n_inner: 20, n_outer: 4}\n")
        out = tmp_path / "run"
        assert main(["kolmogorov-check", "--config", cfg, "--out", str(out)]) == 2
        assert "beta must be finite" in capsys.readouterr().err
        assert not out.exists()  # rejected at parse time, before any run

    def test_functional_rejected_by_the_hash_writes_summary(self, tmp_path):
        # parse_config rejects beta = inf; set in code, it first meets the
        # functional builder inside the config hash
        cfg = parse_config("command: kolmogorov-check\nfunctional: {name: smooth-max}\n")
        cfg.functional["beta"] = float("inf")
        cfg.out_dir = str(tmp_path / "run")
        assert run(cfg) == 2
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "invalid-experiment"
        assert "beta must be finite" in summary["detail"]

    def test_config_hash_covers_the_resolved_experiment(self, tmp_path):
        base = "command: ito-check\nseed: 7\nbudget:\n  n_samples: 1000\n"

        def config_hash(text, *flags, tag):
            out = tmp_path / tag
            assert main(["ito-check", "--config", write_config(tmp_path, text, f"{tag}.yaml"),
                         "--out", str(out), *flags]) == 0
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        h = config_hash(base, tag="base")
        assert config_hash(base + "threads: 2\n", tag="threads") == h
        assert config_hash(base, "--threads", "3", tag="out-and-threads") == h
        assert config_hash(base + "grid:\n  T: 1.0\n", tag="default-spelled-out") == h
        assert config_hash(base, "--seed", "8", tag="seed") != h

    @pytest.mark.parametrize(
        "command, implicit, spelled_out, different",
        [
            ("weak-rate", "model: {name: ou}", "model: {name: ou, theta: 1.0}",
             "model: {name: ou, theta: 2.0}"),
            ("weak-rate", "", "functional: {name: product, t1: 0.5, t2: 1.0}",
             "functional: {name: product, t1: 0.25}"),
            ("kolmogorov-check", "functional: {name: point}", "functional: {name: point, t1: 1}",
             "functional: {name: point, t1: 0.5}"),
            ("error-representation", "", "functional: {name: point, t1: 0.25}",
             "grid: {T: 0.5}"),
            ("gap-stats", "", "model: {name: constant, drift: 0.0, diffusion: 1.0, xi0: 0.0}",
             "functional: {name: smooth-max}"),
            ("weak-rate", "", "check: {rate_range: [0.7, 1.3]}", "check: {rate_range: [0.8, 1.2]}"),
            ("weak-rate", "", "budget: {batch_size: 131072}", "budget: {batch_size: 4096}"),
            ("weak-rate", "", "reference: {kind: closed-form}", "reference: {kind: fine-grid}"),
            ("kolmogorov-check", "", "mollifier: {epsilon_mesh_multiple: 2.0}",
             "mollifier: {epsilon_mesh_multiple: 3.0}"),
            ("error-representation", "", "check: {freeze: true}", "check: {freeze: false}"),
            ("gap-stats", "", "check: {n_probes: 16}", "check: {n_probes: 8}"),
            ("kolmogorov-check", "", "mollifier: {epsilon_mesh_multiple: 2}",
             "mollifier: {epsilon_mesh_multiple: 3}"),
            ("covariance-bias", "", "check: {ratio_max: 3}", "check: {ratio_max: 2}"),
        ],
        ids=["model-params", "runner-functional", "point-t1", "horizon-relative", "gap-stats",
             "rate-range", "batch-size", "reference-kind", "epsilon-multiple", "freeze",
             "n-probes", "integer-epsilon-multiple", "integer-ratio-max"],
    )
    def test_config_hash_covers_builder_defaults(self, command, implicit, spelled_out, different):
        def config_hash(section):
            return parse_config(f"command: {command}\n{section}\n").config_hash()

        assert config_hash(implicit) == config_hash(spelled_out)
        assert config_hash(implicit) != config_hash(different)

    def test_covariance_bias_rejects_other_functionals(self, tmp_path):
        cfg = write_config(
            tmp_path, "command: covariance-bias\nfunctional: {name: integral-square}\n"
            "grid: {deltas: [0.5, 0.25, 0.125]}\nbudget: {n_samples: 20}\n",
        )
        out = tmp_path / "run"
        assert main(["covariance-bias", "--config", cfg, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "invalid-experiment"
        assert "product" in summary["detail"]

    def test_mollifier_audit(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: mollifier-audit\nseed: 5\ncheck:\n  n_paths: 50\n",
        )
        out = tmp_path / "run"
        assert main(["mollifier-audit", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        names = {c["check"] for c in summary["checks"]}
        assert names == {
            "mollifier-contraction",
            "mollifier-linearity",
            "mollifier-non-anticipativity",
            "mollifier-ramp",
        }
        assert all(c["passed"] for c in summary["checks"])

    def test_error_representation_small(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: error-representation\nseed: 4\n"
            "budget:\n  n_outer: 48\n  n_inner: 48\n",
        )
        out = tmp_path / "run"
        assert main(["error-representation", "--config", cfg, "--out", str(out)]) == 0

    def test_martingale_check_small(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: martingale-check\nseed: 4\n"
            "budget:\n  n_samples: 64\n  n_inner: 64\n",
        )
        out = tmp_path / "run"
        assert main(["martingale-check", "--config", cfg, "--out", str(out)]) == 0

    def test_gap_stats_small(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "command: gap-stats\nseed: 4\n"
            "grid:\n  n_steps: 4\n  fine_factor: 16\n"
            "budget:\n  n_samples: 2000\n"
            "functional:\n  name: product\n  t1: 0.3\n  t2: 0.7\n",
        )
        out = tmp_path / "run"
        assert main(["gap-stats", "--config", cfg, "--out", str(out)]) == 0


# tiny budgets for every command that takes a model and a functional; weak-rate
# uses the fine-grid reference, since the closed form covers only OU point/product
_MATRIX_BASE = {
    "weak-rate": "grid: {deltas: [0.5, 0.25, 0.125]}\nbudget: {n_samples: 20}\n"
                 "reference: {kind: fine-grid, factor: 2}\n",
    "covariance-bias": "grid: {deltas: [0.5, 0.25, 0.125]}\nbudget: {n_samples: 20}\n",
    "gap-stats": "grid: {n_steps: 2, fine_factor: 4}\nbudget: {n_samples: 50}\n",
    "kolmogorov-check": "grid: {n_steps: 8}\nbudget: {n_inner: 4, n_outer: 2}\n",
    "martingale-check": "grid: {n_steps: 8}\nbudget: {n_samples: 4, n_inner: 4}\n",
    "error-representation": "grid: {fine_factor: 8}\nbudget: {n_outer: 2, n_inner: 2}\n",
}
_MATRIX = [
    pytest.param(
        command,
        f"command: {command}\nseed: 1\nmodel: {{name: {model}}}\n" + base
        + (f"functional: {{name: {name}}}\n" if name else ""),
        command == "covariance-bias" and (model != "ou" or name not in (None, "product")),
        id=f"{command}-{name or 'default'}-{model}",
    )
    for command, base in _MATRIX_BASE.items()
    for name in (None, "product", "point", "integral-square", "smooth-max")
    for model in ("ou", "sine", "constant")
] + [
    pytest.param("ito-check", "command: ito-check\nseed: 1\nbudget: {n_samples: 20}\n"
                 "check: {meshes: [4, 8, 16]}\n", False, id="ito-check"),
    pytest.param("mollifier-audit", "command: mollifier-audit\nseed: 1\ngrid: {n_steps: 16}\n"
                 "check: {n_paths: 4}\n", False, id="mollifier-audit"),
]


class TestRobustnessMatrix:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, text, invalid", _MATRIX)
    def test_runs_or_fails_cleanly(self, tmp_path, command, text, invalid):
        # every shipped command x functional x model either runs (0, 1, 3, 4)
        # or, only where the experiment is undefined, exits 2; each writes a
        # summary with its status
        out = tmp_path / "run"
        code = main([command, "--config", write_config(tmp_path, text), "--out", str(out)])
        assert code in ((2,) if invalid else (0, 1, 3, 4))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] in (
            ("invalid-experiment",) if invalid
            else ("ok", "insufficient-signal", "budget-cap", "numeric-failure")
        )


class TestThreadInvariance:
    @pytest.mark.parametrize(
        "text",
        [
            "command: weak-rate\nseed: 11\nbudget:\n  n_samples: 60000\n"
            "grid:\n  deltas: [0.25, 0.125, 0.0625]\n",
            "command: gap-stats\nseed: 11\ngrid:\n  n_steps: 4\n  fine_factor: 8\n"
            "budget:\n  n_samples: 3000\n",
            "command: ito-check\nseed: 11\nbudget:\n  n_samples: 3000\n",
        ],
        ids=["weak-rate", "gap-stats", "ito-check"],
    )
    def test_csv_byte_identical_across_threads(self, tmp_path, text):
        cfg = write_config(tmp_path, text)
        cmd = text.split("\n")[0].split(": ")[1]
        outs = []
        for threads, tag in ((1, "a"), (3, "b")):
            out = tmp_path / tag
            code = main([cmd, "--config", cfg, "--out", str(out), "--threads", str(threads)])
            assert code in (0, 1)
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]


class TestBlasThreadInvariance:
    """Every command that multiplies by a mollifier gives the same bytes
    whatever OpenBLAS thread count the process starts with."""

    @pytest.mark.parametrize(
        "text",
        [
            "command: kolmogorov-check\nseed: 5\nfunctional: {name: integral-square}\n"
            "budget: {n_inner: 300, n_outer: 4}\n",
            "command: error-representation\nseed: 5\nbudget: {n_outer: 6, n_inner: 32}\n",
            "command: weak-rate\nseed: 5\nmodel: {name: sine}\n"
            "functional: {name: integral-square}\nmollifier: {epsilon: 0.25}\n"
            "grid: {deltas: [0.125, 0.0625, 0.03125]}\nreference: {kind: fine-grid, factor: 4}\n"
            "budget: {n_samples: 2000}\n",
            "command: mollifier-audit\nseed: 5\ngrid: {n_steps: 256}\ncheck: {n_paths: 64}\n",
        ],
        ids=["kolmogorov-check", "error-representation", "weak-rate-mollified",
             "mollifier-audit"],
    )
    def test_outputs_byte_identical_across_blas_threads(self, tmp_path, text):
        cfg = write_config(tmp_path, text)
        cmd = text.split("\n")[0].split(": ")[1]
        src = str(Path(weakpathlab.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run(
                [sys.executable, "-m", "weakpathlab.cli", cmd, "--config", cfg, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode in (0, 1), proc.stderr
            outs.append([(out / name).read_bytes() for name in ("report.csv", "summary.json")])
        assert outs[0] == outs[1]
