"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Budgets are pinned here; every tolerance comes from the criterion itself.
The heavy ladder criteria dominate the runtime.  Criteria 1 and 3 run their
``RateExperiment``, criterion 2 its ``covariance_bias`` calls and criterion 4
its ``interpolation_gap_stats`` calls on every core (``THREADS``): the batch
layout and streams do not depend on the thread count, so their numbers are
those of a one-thread run (criterion 11 checks that contract).  Run with
``pytest tests/test_acceptance.py -s`` to watch the per-criterion lines.
"""

import os

import numpy as np
import pytest

import weakpathlab as wpl
from weakpathlab.core_paths import DiscretePath, PathMode, TimeGrid
from weakpathlab.functional_calculus import ito_rms_study
from weakpathlab.randomness import SeedSpec

OU = wpl.ou_model(theta=1.0, sigma=1.0, xi0=1.0)
SINE = wpl.sine_model(a=0.5, c=1.0, xi0=0.5)
LADDER = (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)
THREADS = os.cpu_count() or 1


def integral_square():
    return wpl.integral_functional(
        lambda u: u**2, lambda u: 2.0 * u, lambda u: 2.0 + 0.0 * u, name="integral-square"
    )


def report(name: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def euler_mean(theta, delta, t):
    return (1.0 - theta * delta) ** round(t / delta)


def euler_product_moment(theta, sigma, xi0, delta, t1, t2):
    """Exact E[Y(t1) Y(t2)] for the linear-drift Euler chain (node times)."""
    a = 1.0 - theta * delta
    k1, k2 = round(t1 / delta), round(t2 / delta)
    var = 0.0
    for _ in range(k1):
        var = a**2 * var + sigma**2 * delta
    return a ** (k2 - k1) * var + xi0**2 * a ** (k1 + k2)


def constant_prefix(fine, t, value):
    i = fine.index_of(t)
    return DiscretePath(TimeGrid(fine.nodes[: i + 1]), np.full(i + 1, value), PathMode.LINEAR)


def test_criterion_01_weak_rate_order_one():
    """OU covariance functional, closed-form reference, delta^-2 sampling."""
    exp = wpl.RateExperiment(
        model=OU,
        functional=wpl.product_functional(0.5, 1.0),
        horizon=1.0,
        deltas=LADDER,
        n_base=1_000_000,
        reference=wpl.ClosedFormReference(),
        seed=SeedSpec(202401),
        threads=THREADS,
    )
    rep = wpl.weak_rate_experiment(exp)
    ok = rep.status == "ok" and rep.signal_rungs >= 3 and 0.7 <= rep.fitted_rate <= 1.3
    report(
        "criterion-1 weak-rate",
        ok,
        f"rate={rep.fitted_rate:.4f} ci=({rep.rate_ci[0]:.3f},{rep.rate_ci[1]:.3f}) "
        f"signal_rungs={rep.signal_rungs}",
    )


def test_criterion_02_covariance_bias_linear_in_delta():
    """|bias(delta)|/delta bounded above and below; spread <= 3 over signal rungs."""
    ratios = []
    signal = 0
    for k, delta in enumerate(LADDER):
        grid = wpl.make_uniform_grid(1.0, round(1.0 / delta))
        n = int(np.ceil(250_000 * (LADDER[0] / delta) ** 2))
        point = wpl.covariance_bias(OU, 0.5, 1.0, grid, n, SeedSpec(202402, k), threads=THREADS)
        if abs(point.bias) > 4.0 * point.std_error:
            signal += 1
            ratios.append(abs(point.bias) / delta)
    spread = max(ratios) / min(ratios) if len(ratios) >= 2 else np.inf
    ok = signal >= 3 and spread <= 3.0
    report(
        "criterion-2 covariance-bias",
        ok,
        f"signal_rungs={signal} |bias|/delta spread={spread:.3f} (<= 3)",
    )


def test_criterion_03_linear_drift_bias_oracle():
    """Measured bias matches (1 - theta delta)^{T/delta} - e^{-theta T} per rung."""
    exp = wpl.RateExperiment(
        model=OU,
        functional=wpl.point_functional(1.0),
        horizon=1.0,
        deltas=LADDER,
        n_base=100_000,
        reference=wpl.ClosedFormReference(),
        seed=SeedSpec(202403),
        threads=THREADS,
    )
    worst = 0.0
    ok = True
    for rung, delta in enumerate(LADDER):
        point = wpl.coupled_bias(exp, rung)
        oracle = euler_mean(1.0, delta, 1.0) - np.exp(-1.0)
        z = abs(point.bias - oracle) / point.std_error
        worst = max(worst, z)
        ok &= z <= 4.0
    report("criterion-3 linear-drift-oracle", ok, f"worst |bias - oracle| = {worst:.2f} SE (<= 4)")


def test_criterion_04_interpolation_gap_suite():
    """Nodewise mean zero, fourth-moment bound, and d1-pairing for X~ - Y."""
    model = wpl.constant_model(drift=0.0, diffusion=1.0, xi0=0.0)
    bound = 1.25 * 48.0 * (4.0 / 3.0) ** 4
    details = []
    ok = True
    for tag, n_steps in (("2^-3", 8), ("2^-5", 32)):
        grid = wpl.make_uniform_grid(1.0, n_steps)
        fine = wpl.refine_grid(grid, 64)
        rep = wpl.interpolation_gap_stats(
            model, grid, fine, 20_000, SeedSpec(202404, n_steps),
            functional=wpl.product_functional(0.3, 0.7), n_probes=16, threads=THREADS,
        )
        ok &= rep.probes_pass and rep.pairing_pass and rep.sup4_over_delta2 <= bound
        details.append(f"delta={tag}: sup4/d2={rep.sup4_over_delta2:.1f}")
    report(
        "criterion-4 interpolation-gap",
        ok,
        "; ".join(details) + f" (bound {bound:.1f}); probes and pairing within 4 SE",
    )


def test_criterion_05_mollifier_property_suite():
    grid = wpl.make_uniform_grid(1.0, 256)
    spec = wpl.MollifierSpec(0.05, 64)
    seed = SeedSpec(202405)

    contraction = True
    for i in range(1000):
        p = wpl.sample_brownian(grid, seed.with_stream(i)).path
        if wpl.sup_norm(wpl.mollify(spec, p)) > wpl.sup_norm(p):
            contraction = False

    linearity = 0.0
    for i in range(50):
        p = wpl.sample_brownian(grid, seed.with_stream(2000 + i)).path
        q = wpl.sample_brownian(grid, seed.with_stream(3000 + i)).path
        combo = DiscretePath(grid, 1.7 * p.values - 0.4 * q.values, PathMode.LINEAR)
        direct = wpl.mollify(spec, combo).values
        parts = 1.7 * wpl.mollify(spec, p).values - 0.4 * wpl.mollify(spec, q).values
        linearity = max(linearity, float(np.abs(direct - parts).max()))

    p = wpl.sample_brownian(grid, seed.with_stream(5000)).path
    cut = 170
    edited = p.values.copy()
    edited[cut + 1 :] += 5.0
    non_anticipative = bool(
        np.array_equal(
            wpl.mollify(spec, p).values[: cut + 1],
            wpl.mollify(spec, DiscretePath(grid, edited, PathMode.LINEAR)).values[: cut + 1],
        )
    )

    ramp = DiscretePath(grid, grid.nodes.copy(), PathMode.LINEAR)
    out = wpl.mollify(spec, ramp).values
    inside = grid.nodes >= spec.epsilon
    ramp_err = float(np.abs(out[inside] - (grid.nodes[inside] - spec.epsilon / 2)).max())

    ok = contraction and linearity <= 1e-10 and non_anticipative and ramp_err <= 1e-6
    report(
        "criterion-5 mollifier-suite",
        ok,
        f"contraction(1000 paths)={contraction} linearity={linearity:.2e} (<=1e-10) "
        f"non-anticipative={non_anticipative} ramp={ramp_err:.2e} (<=1e-6)",
    )


def test_criterion_06_haar_schauder_round_trip():
    seed = SeedSpec(202406)
    worst = 0.0
    for levels in range(1, 9):
        coarse = wpl.make_uniform_grid(1.0, 2)
        fine = wpl.refine_grid(coarse, 2**levels)
        w = wpl.sample_brownian(fine, seed.with_stream(levels))
        idx = fine.indices_of_subgrid(coarse)
        for n in range(2):
            c = wpl.haar_coefficients(w, coarse, n, levels)
            rec = wpl.schauder_reconstruct(
                c, (coarse.nodes[n], coarse.nodes[n + 1]), fine
            )
            inside = slice(idx[n], idx[n + 1] + 1)
            err = np.abs(rec.values[inside] - (w.values[inside] - w.values[idx[n]])).max()
            worst = max(worst, float(err))
    ok = worst < 1e-12
    report("criterion-6 haar-schauder", ok, f"max dyadic reconstruction error={worst:.2e} (<1e-12)")


def test_criterion_07_functional_ito_contraction():
    study = ito_rms_study(1.0, [16, 32, 64, 128, 256], 10_000, SeedSpec(202407))
    ok = all(1.2 <= r <= 1.7 for r in study["ratios"])
    report(
        "criterion-7 ito-contraction",
        ok,
        "ratios per halving = " + ", ".join(f"{r:.3f}" for r in study["ratios"]) + " (in [1.2, 1.7])",
    )


def test_criterion_08_kolmogorov_residuals():
    fine = wpl.make_uniform_grid(1.0, 128)
    eps = 2.0 / 128
    cases = [
        ("ou-point", OU, wpl.point_functional(1.0), 0.5),
        ("ou-product", OU, wpl.product_functional(0.6, 1.0), 0.25),
        ("sine-point", SINE, wpl.point_functional(1.0), 0.5),
        ("sine-integral", SINE, integral_square(), 0.5),
    ]
    details = []
    ok = True
    for i, (tag, model, f, t) in enumerate(cases):
        rep = wpl.kolmogorov_residual(
            model, constant_prefix(fine, t, model.xi0), f, eps, 1000,
            SeedSpec(202408, i), fine, n_outer=1000,
        )
        ok &= rep.passed
        details.append(f"{tag}: |{rep.residual:+.4f}| <= {rep.tolerance:.4f}")

    # injected fault: drop the 1/2 on the diffusion term for f = x(T)^2
    host = wpl.kolmogorov_residual(
        OU, constant_prefix(fine, 0.5, 1.0), wpl.product_functional(1.0, 1.0), eps, 1000,
        SeedSpec(202408, 99), fine, n_outer=1000,
    )
    fault_residual = host.residual + host.components["diffusion_term"]
    fault_detected = host.passed and abs(fault_residual) > host.tolerance
    ok &= fault_detected
    details.append(f"fault: |{fault_residual:+.4f}| > {host.tolerance:.4f} detected={fault_detected}")
    report("criterion-8 kolmogorov", ok, "; ".join(details))


def test_criterion_09_martingale_gaps():
    cases = [
        ("ou-point", OU, wpl.point_functional(1.0), 128, (0.25, 0.75)),
        ("ou-product", OU, wpl.product_functional(0.5, 1.0), 160, (0.1, 0.9)),
        ("sine-point", SINE, wpl.point_functional(1.0), 128, (0.25, 0.75)),
        ("sine-integral", SINE, integral_square(), 160, (0.3, 0.6)),
    ]
    ok = True
    details = []
    for i, (tag, model, f, n_steps, times) in enumerate(cases):
        fine = wpl.make_uniform_grid(1.0, n_steps)
        rep = wpl.martingale_gap(
            model, f, 2.0 * fine.mesh, times, 256, SeedSpec(202409, i), fine, n_inner=256
        )
        ok &= rep.passed
        details.append(f"{tag}{times}: |{rep.residual:+.4f}| <= {rep.tolerance:.4f}")
    report("criterion-9 martingale", ok, "; ".join(details))


def test_criterion_10_error_representation_identity():
    coarse = wpl.make_uniform_grid(0.25, 2)
    eps = 2.0 * 0.25 / 128
    rep = wpl.error_representation_sides(
        OU, wpl.point_functional(0.25), eps, coarse, 256, 256, SeedSpec(202410),
        fine_factor=64, quad_per_interval=4,
    )
    degen = wpl.error_representation_sides(
        OU, wpl.point_functional(0.25), eps, coarse, 64, 32, SeedSpec(202411),
        fine_factor=64, freeze=False,
    )
    degen_ok = abs(degen.lhs.value) <= 4 * degen.lhs.std_error + 1e-300 and abs(
        degen.rhs.value
    ) <= 4 * degen.rhs.std_error + 1e-300
    ok = rep.passed and degen_ok
    report(
        "criterion-10 error-representation",
        ok,
        f"lhs={rep.lhs.value:+.5f}({rep.lhs.std_error:.5f}) rhs={rep.rhs.value:+.5f}"
        f"({rep.rhs.std_error:.5f}) |diff|={abs(rep.diff):.5f} <= {4 * rep.diff_std_error:.5f}; "
        f"degenerate both sides zero={degen_ok}",
    )


def test_criterion_11_thread_invariant_csv(tmp_path):
    from weakpathlab.cli import main

    configs = {
        "weak-rate": (
            "command: weak-rate\nseed: 202412\nbudget:\n  n_samples: 60000\n"
            "grid:\n  deltas: [0.25, 0.125, 0.0625]\n"
        ),
        "gap-stats": (
            "command: gap-stats\nseed: 202413\ngrid:\n  n_steps: 8\n  fine_factor: 16\n"
            "budget:\n  n_samples: 4000\n"
            "functional:\n  name: product\n  t1: 0.3\n  t2: 0.7\n"
        ),
        "ito-check": "command: ito-check\nseed: 202414\nbudget:\n  n_samples: 5000\n",
    }
    ok = True
    details = []
    for cmd, text in configs.items():
        cfg = tmp_path / f"{cmd}.yaml"
        cfg.write_text(text)
        blobs = []
        for threads, tag in ((1, "t1"), (3, "t3")):
            out = tmp_path / f"{cmd}-{tag}"
            code = main([cmd, "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
            assert code == 0, f"{cmd} exited {code}"
            blobs.append((out / "report.csv").read_bytes())
        same = blobs[0] == blobs[1]
        ok &= same
        details.append(f"{cmd}: identical={same}")
    report("criterion-11 determinism", ok, "; ".join(details))
