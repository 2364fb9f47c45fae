import json

import pytest

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
        with pytest.raises(ConfigError):
            parse_config("command: ito-check\nbudget:\n  n_inner: -3\n")

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
        assert build_functional({"name": "product", "t1": 0.2, "t2": 0.6}).probe_times == (0.2, 0.6)
        assert build_functional({"name": "point", "t1": 0.9}).probe_times == (0.9,)
        assert build_functional({"name": "integral-square"}).batch_eval is not None
        assert build_functional({"name": "smooth-max", "beta": 3.0}).growth_exponent == 1.0


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

    def test_refuses_to_overwrite(self, tmp_path):
        cfg = write_config(tmp_path, "command: ito-check\nseed: 7\nbudget:\n  n_samples: 1000\n")
        out = tmp_path / "run"
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 0
        assert main(["ito-check", "--config", cfg, "--out", str(out)]) == 2

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
