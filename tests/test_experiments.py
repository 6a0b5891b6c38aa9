"""Experiment runner: config handling, CSV reports, sweeps, CLI, validation."""

import math
import os
import subprocess
import sys
import threading
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from snratio import experiments, simulate
from snratio.cli import build_parser, main, resolve_config
from snratio.delivery import FadingBatch
from snratio.errors import ParameterDomainError
from snratio.experiments import (
    ExperimentConfig,
    check_figure3,
    check_figure5,
    parse_config_file,
    read_csv,
    run_ccdf_dump,
    run_figure3,
    run_figure4,
    run_figure5,
    run_laplace_dump,
    validate,
    write_csv,
)
from snratio.mc import Estimate, bernoulli_estimate
from snratio.simulate import TrialConfig


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.helper_density == 0.1
        assert cfg.alphas == (3.0, 4.0)
        assert cfg.n_files == 50
        assert cfg.theta == 5.0

    def test_rejects_invalid(self):
        with pytest.raises(ParameterDomainError):
            ExperimentConfig(gamma_grid=())
        with pytest.raises(ParameterDomainError, match="gamma_grid"):
            ExperimentConfig(gamma_grid=(0.0, -1.0))
        with pytest.raises(ParameterDomainError):
            ExperimentConfig(alphas=(1.5,))
        with pytest.raises(ParameterDomainError):
            ExperimentConfig(trials=0)

    @pytest.mark.parametrize("field, value", [
        ("n_files", 2.5), ("n_files", 50.0), ("n_files", True),
        ("fig4_n_files", (5, 2.5)), ("fig4_n_files", (5.0,)),
        ("fig5_n_files", (True, 500)), ("fig5_n_files", (0,)),
    ])
    def test_file_counts_must_be_integers(self, field, value):
        # A file count sizes every array and the profile, as trials and seed
        # key the streams: integer-valued floats and bools are rejected too.
        with pytest.raises(ParameterDomainError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("tail_tol", [-1.0, 0.0, math.nan])
    def test_tail_tol_is_positive(self, tail_tol):
        # Rejected with the config, not later when a sweep builds its TrialConfig.
        with pytest.raises(ParameterDomainError, match="tail_tol"):
            ExperimentConfig(tail_tol=tail_tol)

    def test_one_tail_tol_default(self):
        assert ExperimentConfig().tail_tol == TrialConfig(trials=1).tail_tol == 1e-2

    @pytest.mark.parametrize("field", ["alphas", "gamma_grid", "fig4_n_files", "fig5_n_files"])
    def test_sweep_axes_are_nonempty(self, field, tmp_path):
        # An empty axis gives an empty sweep, which --validate would pass on zero rows.
        with pytest.raises(ParameterDomainError, match=f"{field} must be nonempty"):
            ExperimentConfig(**{field: ()})
        path = tmp_path / "run.cfg"
        path.write_text(f"{field} =\n")
        with pytest.raises(ParameterDomainError, match=f"{field} must be nonempty"):
            ExperimentConfig(**parse_config_file(str(path)))

    @pytest.mark.parametrize("mc_tol", [math.inf, -math.inf, -0.01, 0.0])
    def test_mc_tol_is_positive_and_finite_or_nan(self, mc_tol):
        # An infinite or negative tolerance would pass or fail every Monte
        # Carlo check whatever its gap; nan selects the 3-stderr limit.
        with pytest.raises(ParameterDomainError, match="mc_tol"):
            ExperimentConfig(mc_tol=mc_tol)
        ExperimentConfig(mc_tol=math.nan)
        ExperimentConfig(mc_tol=0.01)

    @pytest.mark.parametrize("make, size", [
        (FadingBatch, "sample_count"), (TrialConfig, "trials"),
        (ExperimentConfig, "trials"), (ExperimentConfig, "batch_samples"),
    ])
    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.0), ("seed", True), ("size", 100.0), ("size", "100"),
    ])
    def test_seeds_and_sizes_must_be_integers(self, make, size, field, value):
        # Rejected at construction, before any draw: a float seed 1.0 must
        # not stand for the seed 1.
        name = size if field == "size" else "seed"
        with pytest.raises(ParameterDomainError, match=name):
            make(**{size: 100, "seed": 0, name: value})
        make(**{size: np.int64(100), "seed": np.int64(0)})

    @pytest.mark.parametrize("make", [TrialConfig, ExperimentConfig])
    @pytest.mark.parametrize("value", [0, 2.5, True, "2"])
    def test_partitions_must_be_integers(self, make, value):
        # Checked at construction: validate's pool reads config.partitions.
        with pytest.raises(ParameterDomainError, match="partitions"):
            make(trials=100, partitions=value)
        make(trials=100, partitions=np.int64(2))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field, match", [
        ("theta", "theta"), ("alphas", "alpha"), ("fig5_alpha", "alpha"),
        ("helper_density", "helper_density"), ("gamma_grid", "gamma_grid")])
    def test_rejects_nonfinite(self, field, match, bad):
        value = (3.0, bad) if field in ("alphas", "gamma_grid") else bad
        with pytest.raises(ParameterDomainError, match=match):
            ExperimentConfig(**{field: value})

    def test_zero_counts_are_not_replaced_by_defaults(self):
        cfg = ExperimentConfig()
        with pytest.raises(ParameterDomainError):
            cfg.trial_config(trials=0)
        with pytest.raises(ParameterDomainError):
            cfg.batch(samples=0)

    def test_hash_ignores_output_location(self):
        a = ExperimentConfig(out_dir="x")
        b = ExperimentConfig(out_dir="y")
        c = ExperimentConfig(seed=99)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "trials = 123\n"
            "alphas = 3.0, 4.0\n"
            "gamma_grid = 0 1 2\n"
            "out_dir = results\n")
        values = parse_config_file(str(path))
        assert values == {"trials": 123, "alphas": (3.0, 4.0),
                          "gamma_grid": (0.0, 1.0, 2.0), "out_dir": "results"}

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob = 1\n")
        with pytest.raises(ParameterDomainError):
            parse_config_file(str(path))


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "t.csv")
        meta = {"config_hash": "abc", "seed": 7}
        header = ["gamma", "method", "value"]
        rows = [(0.5, "sim", 0.123456789123), (3.0, "bound", float("nan"))]
        write_csv(path, meta, header, rows)
        meta2, header2, rows2 = read_csv(path)
        assert meta2["config_hash"] == "abc" and meta2["seed"] == "7"
        assert header2 == header
        assert rows2[0]["gamma"] == 0.5
        assert rows2[0]["method"] == "sim"
        assert rows2[0]["value"] == pytest.approx(0.123456789, rel=1e-9)
        assert np.isnan(rows2[1]["value"])

    def test_nine_significant_digits(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_csv(path, {}, ["v"], [(0.123456789123456,)])
        body = [l for l in open(path) if not l.startswith("#")]
        assert body[1].strip() == "0.123456789"


def tiny_config(**kw):
    base = dict(trials=2000, batch_samples=4000, seed=5,
                gamma_grid=(0.0, 3.0), n_files=10,
                fig4_n_files=(5, 20), fig5_n_files=(5, 20))
    base.update(kw)
    return ExperimentConfig(**base)


class TestSweeps:
    def test_figure3_rows_and_ordering(self):
        header, rows = run_figure3(tiny_config())
        methods = {r[2] for r in rows}
        assert {"sim_aligned", "sim_baseline", "upper_bound", "lower_bound"} <= methods
        # one row set per (gamma, alpha); rows sorted by construction
        keys = [(r[0], r[1]) for r in rows]
        assert keys == sorted(keys, key=lambda t: (t[0], t[1], 0))
        assert check_figure3(rows) == []

    def test_figure3_gain_present_on_aligned_rows(self):
        _, rows = run_figure3(tiny_config(gamma_grid=(3.0,), alphas=(4.0,)))
        aligned = [r for r in rows if r[2] == "sim_aligned"]
        assert len(aligned) == 1 and aligned[0][6] > 1.0

    @pytest.mark.filterwarnings("ignore::snratio.errors.MomentReliabilityWarning")
    def test_figure4_has_overlays(self):
        # The series overlay deliberately runs into shaky high moments on
        # part of the grid; the warnings are the designed flagging behavior.
        _, rows = run_figure4(tiny_config(gamma_grid=(1.0,), alphas=(4.0,)))
        by_method = {r[3] for r in rows}
        assert by_method == {"sim_aligned", "expectation_form", "series_form"}
        sims = {(r[0], r[2]): r[4] for r in rows if r[3] == "sim_aligned"}
        closed = {(r[0], r[2]): r[4] for r in rows if r[3] == "expectation_form"}
        for key in sims:
            assert sims[key] == pytest.approx(closed[key], abs=0.05)

    def test_figure5_approximation_follows_simulation(self):
        _, rows = run_figure5(tiny_config(trials=20_000, gamma_grid=(0.0, 3.0),
                                          fig5_n_files=(5,)))
        for r in rows:
            assert abs(r[6]) < 0.25  # coarse at these trial counts

    def test_figure5_zero_successes_give_nan(self):
        cfg = ExperimentConfig(theta=1e10, trials=300, fig5_n_files=(5,), gamma_grid=(0.0,))
        _, rows = run_figure5(cfg)
        (row,) = rows
        assert all(np.isnan(v) for v in (row[3], row[4], row[6]))
        assert len(check_figure5(rows)) == 1

    def test_figure5_gain_within_three_stderr_of_zero_is_unresolved(self):
        # A gain of about 2e139 with a standard error of about 1e139, from a
        # run where almost every trial failed both models: three standard
        # errors would accept it against any approximation.
        # gamma, alpha, n_files, sim_gain, sim_gain_stderr, approx_gain, rel_gap
        row = (0.0, 4.0, 5, 2.3e139, 1.0e139, 1.3927, -1.0)
        (problem,) = check_figure5([row])
        assert "unresolved" in problem

    def test_figure3_check_flags_nearest_helper_simulation_off_closed_form(self):
        _, rows = run_figure3(tiny_config(gamma_grid=(3.0,), alphas=(4.0,)))
        assert check_figure3(rows) == []
        (closed,) = [r[4] for r in rows if r[2] == "baseline_closed"]

        def placed(z):
            # The simulated row at z of its standard errors from the closed
            # form, whatever the draw.
            return [r[:4] + (closed + z * r[5],) + r[5:] if r[2] == "sim_baseline" else r
                    for r in rows]

        for z in (2.5, -2.5):
            assert check_figure3(placed(z)) == []
        for z in (3.5, -3.5):
            (problem,) = check_figure3(placed(z))
            assert "nearest-helper" in problem

    def test_figure5_check_allows_noise_but_not_a_far_off_row(self):
        # gamma, alpha, n_files, sim_gain, sim_gain_stderr, approx_gain, rel_gap
        noisy = (0.0, 4.0, 500, 1.50, 0.38, 1.88, 0.253)
        far_off = (3.0, 4.0, 500, 3.00, 0.05, 2.40, -0.2)
        assert check_figure5([noisy]) == []
        (problem,) = check_figure5([noisy, far_off])
        assert "gamma=3.0" in problem

    def test_figure5_check_flags_a_gain_that_falls_with_skew(self):
        # gamma, alpha, n_files, sim_gain, sim_gain_stderr, approx_gain, rel_gap;
        # the rows come unsorted, and the nan row between the two N = 5
        # points is skipped, so 1.3 is compared with 1.6.
        nan = math.nan
        rows = [(1.0, 4.0, 5, 1.30, 0.05, 1.35, 0.04),
                (0.0, 4.0, 5, 1.60, 0.05, 1.62, 0.01),
                (0.5, 4.0, 5, nan, nan, 1.50, nan),
                (0.0, 4.0, 500, 1.00, 0.05, 1.01, 0.01),
                (1.0, 4.0, 500, 0.90, 0.05, 0.92, 0.02)]
        problems = [p for p in check_figure5(rows) if "falls" in p]
        assert len(problems) == 1
        assert "alpha=4.0 n_files=5" in problems[0] and "gamma=1.0" in problems[0]
        # Within three combined standard errors (0.21) a fall is noise.
        assert not [p for p in check_figure5(
            [(0.0, 4.0, 5, 1.60, 0.05, 1.62, 0.01), (1.0, 4.0, 5, 1.40, 0.05, 1.41, 0.01)])
            if "falls" in p]

    def test_figure4_database_size_effect(self):
        # Fewer files help at low skew; at high skew the curves merge.
        import math

        cfg = tiny_config(trials=10_000, gamma_grid=(0.0, 3.0), alphas=(4.0,),
                          fig4_n_files=(20, 50))
        _, rows = run_figure4(cfg)
        sims = {(r[0], r[2]): (r[4], r[5]) for r in rows if r[3] == "sim_aligned"}
        low_small, low_large = sims[(0.0, 20)], sims[(0.0, 50)]
        assert low_small[0] > low_large[0] + 3.0 * math.hypot(low_small[1], low_large[1])
        hi_small, hi_large = sims[(3.0, 20)], sims[(3.0, 50)]
        assert abs(hi_small[0] - hi_large[0]) <= 3.0 * math.hypot(hi_small[1], hi_large[1])

    def test_ccdf_dump_consistent(self):
        header, rows = run_ccdf_dump(4.0, 1.0, [0.5, 1.0, 4.0])
        assert header == ["x", "ccdf", "ccdf_via_stable"]
        for _, a, b in rows:
            assert a == pytest.approx(b, abs=1e-10)

    def test_laplace_dump_marks_divergence(self):
        _, rows = run_laplace_dump(4.0, 5.0, [0.1, 1e4])
        assert np.isnan(rows[0][1])
        assert rows[1][1] > 0.0


class TestValidateSuite:
    def test_default_passes(self):
        ok, report = validate(tiny_config(trials=20_000))
        assert ok, report
        lines = report.splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 7
        assert "ALL CHECKS PASSED" in report

    def test_corrupted_tolerance_fails_mc_agreement(self):
        ok, report = validate(tiny_config(trials=100, mc_tol=1e-30))
        assert not ok
        assert "FAIL mc_ratio_agreement" in report

    def test_report_is_deterministic(self):
        cfg = tiny_config(trials=5000)
        assert validate(cfg)[1] == validate(cfg)[1]

    def test_report_does_not_depend_on_partitions(self):
        ref = validate(tiny_config(trials=5000))[1]
        for partitions in (2, 3):
            assert validate(tiny_config(trials=5000, partitions=partitions))[1] == ref

    @pytest.mark.parametrize("gap, stderr, passed", [(0.0, 0.0, True), (0.1, 0.0, False),
                                                     (0.25, 0.25, False)])
    def test_window_doubling_passes_an_equal_pair(self, monkeypatch, gap, stderr, passed):
        # A pair whose coupled estimates are equal passes even at stderr 0;
        # any other gap must stay strictly below the combined stderr.
        def probe(x, specs, cfg):
            base = Estimate(0.5, stderr, cfg.trials, cfg.seed)
            return [(base, Estimate(0.5 + gap, 0.0, cfg.trials, cfg.seed)) for _ in specs]

        monkeypatch.setattr(simulate, "window_doubling_probe", probe)
        ok, detail = experiments._window_job(tiny_config())
        assert ok is passed, detail

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_earliest_failing_job_in_report_order_propagates(self, monkeypatch, partitions):
        # On a pool the fading job starts first and fails at once; the MC
        # ratio job precedes it in the report and fails later, and its error wins.
        class Earlier(Exception):
            pass

        class Later(Exception):
            pass

        def mc_ratio(*args, **kwargs):
            time.sleep(0.2)
            raise Earlier

        def fading(*args, **kwargs):
            raise Later

        monkeypatch.setattr(simulate, "ratio_ccdf_estimates", mc_ratio)
        monkeypatch.setattr(simulate, "sir_samples_aligned", fading)
        with pytest.raises(Earlier):
            validate(tiny_config(partitions=partitions))

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_jobs_run_on_at_most_partitions_threads(self, monkeypatch, partitions):
        threads = set()
        for name in ("ratio_ccdf_estimates", "shot_noise_samples", "sir_samples_aligned",
                     "empirical_ratio_ccdf", "window_doubling_probe"):
            def recorded(*args, _original=getattr(simulate, name), **kwargs):
                threads.add(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(simulate, name, recorded)
        validate(tiny_config(partitions=partitions))
        if partitions == 1:
            assert threads == {threading.get_ident()}
        else:
            assert 1 <= len(threads) <= partitions
            assert threading.get_ident() not in threads


def _birnbaum_tingey(n, d):
    """P(D_n+ >= d) by the Birnbaum-Tingey sum, term by term in mpmath."""
    d = mpmath.mpf(d)
    total, binom, j = mpmath.mpf(0), mpmath.mpf(1), 0
    while j < n and 1 - d - mpmath.mpf(j) / n > 0:
        v = d + mpmath.mpf(j) / n
        total += binom * (1 - v) ** (n - j) * v ** (j - 1)
        binom = binom * (n - j) / (j + 1)
        j += 1
    return d * total


class TestValidateHelpers:
    """The Levy law and KS distances ``validate`` computes, against scipy.stats and mpmath."""

    SCALE = experiments._levy_scale(1.0 / math.pi)
    #: Two ulps of 1.0: the Levy CDF lies in [0, 1], and math.erfc and
    #: scipy's erfc round its values differently in their last bits.
    KS_ATOL = 2.0 * np.finfo(float).eps

    def test_levy_pdf_and_cdf_match_scipy(self):
        x = np.geomspace(1e-2, 1e6, 400) * self.SCALE
        np.testing.assert_allclose(experiments._levy_pdf(x, self.SCALE),
                                   stats.levy.pdf(x, scale=self.SCALE), rtol=1e-15, atol=0.0)
        # math.erfc and scipy's erfc differ by up to about 3.7e-15 relative.
        np.testing.assert_allclose(experiments._levy_cdf(x, self.SCALE),
                                   stats.levy.cdf(x, scale=self.SCALE), rtol=1e-14, atol=0.0)

    def test_levy_cdf_matches_mpmath(self):
        # erfc taken exactly at the argument the function forms in doubles.
        x = np.geomspace(1e-2, 1e6, 400) * self.SCALE
        z = np.sqrt(0.5 / (x / self.SCALE))
        with mpmath.workdps(40):
            want = np.array([float(mpmath.erfc(mpmath.mpf(v))) for v in z.tolist()])
        np.testing.assert_allclose(experiments._levy_cdf(x, self.SCALE), want,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [150, 2000, 20000])
    def test_levy_ks_matches_scipy(self, n):
        # The shot-noise samples validate draws; the mismatched scales give
        # failing verdicts too, so both outcomes of the 1% rule are compared.
        verdicts = set()
        for seed in range(20):
            cfg = ExperimentConfig(seed=seed).trial_config(trials=n)
            samples = simulate.shot_noise_samples(1.0 / math.pi, 4.0, cfg)
            for factor in (1.0, 1.05, 1.1, 1.4):
                scale = self.SCALE * factor
                ref = stats.kstest(samples, stats.levy(scale=scale).cdf)
                d = experiments._ks_distance(experiments._levy_cdf(np.sort(samples), scale))
                assert abs(d - ref.statistic) <= self.KS_ATOL
                passed = d <= experiments._ks_critical_1pct(n)
                assert passed == (2.0 * experiments._smirnov(n, d) > 0.01)
                assert passed == (2.0 * special.smirnov(n, d) > 0.01)
                assert passed == (ref.pvalue > 0.01), (seed, factor, d, ref.pvalue)
                verdicts.add(passed)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 10, 150, 2000])
    def test_smirnov_matches_scipy(self, n):
        d = np.linspace(0.0, 1.0, 41)[1:-1]
        got = np.array([experiments._smirnov(n, float(v)) for v in d])
        want = special.smirnov(n, d)
        keep = want > 1e-300
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-11, atol=0.0)
        assert np.all(got[~keep] < 1e-290)

    @pytest.mark.parametrize("n", [150, 2000, 4000, 20000])
    def test_critical_distance_splits_the_smirnov_rule(self, n):
        crit = experiments._ks_critical_1pct(n)
        # The exact ulp boundary of the rule the suite applies.
        assert 2.0 * experiments._smirnov(n, crit) > 0.01
        assert not 2.0 * experiments._smirnov(n, np.nextafter(crit, 1.0)) > 0.01
        assert crit == pytest.approx(special.smirnovi(n, 0.005), rel=1e-11, abs=0.0)
        # The Birnbaum-Tingey tail falls as d grows, so the exact root lies
        # within 1e-11 relative of crit when the tail straddles 0.005 there.
        with mpmath.workdps(20):
            assert 2 * _birnbaum_tingey(n, crit * (1.0 - 1e-11)) > 0.01
            assert 2 * _birnbaum_tingey(n, crit * (1.0 + 1e-11)) < 0.01

    @pytest.mark.parametrize("sizes", [(500, 500), (300, 700), (1, 40), (999, 1000),
                                       (10000, 10000)])
    def test_two_sample_distance_matches_scipy(self, sizes):
        # Up to 10 000 per sample scipy's default (exact) method also reports
        # the distance rounded once from its exact multiple of 1 / lcm(n1, n2).
        rng = np.random.default_rng(sum(sizes))
        for shift in (0.0, 0.3):
            a = rng.standard_normal(sizes[0])
            b = rng.standard_normal(sizes[1]) + shift
            assert experiments._ks_2samp_distance(a, b) == stats.ks_2samp(a, b).statistic
            # Rounding to a coarse grid gives ties within and across the samples.
            a, b = np.round(a, 1), np.round(b, 1)
            assert experiments._ks_2samp_distance(a, b) == stats.ks_2samp(a, b).statistic

    def test_ccdf_limit_is_three_stderr_inside(self):
        est = bernoulli_estimate(37, 20000, 1)
        assert experiments._ccdf_limit(est) == 3.0 * est.stderr

    @pytest.mark.parametrize("successes", [0, 20000])
    def test_ccdf_limit_at_zero_variance_is_wilson_bound(self, successes):
        est = bernoulli_estimate(successes, 20000, 1)
        assert est.stderr == 0.0
        assert experiments._ccdf_limit(est) == 9.0 / 20009.0

    def test_ccdf_limit_at_zero_matches_wilson_interval(self):
        # Upper end of the z = 3 Wilson-score interval at p = 0, from its general form.
        n, z = 20000, 3.0
        upper = (z * z / (2 * n) + z * math.sqrt(z * z / (4 * n * n))) / (1 + z * z / n)
        assert experiments._ccdf_limit(Estimate(0.0, 0.0, n, 1)) == pytest.approx(upper, rel=1e-12)


class TestCli:
    def test_fig3_writes_csv_and_plot_script(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = main(["fig3", "--gamma-grid", "3.0", "--alpha", "4", "--trials", "2000",
                     "--n-files", "10", "--seed", "3", "--out-dir", out, "--validate"])
        assert code == 0
        meta, header, rows = read_csv(os.path.join(out, "fig3.csv"))
        assert meta["seed"] == "3"
        assert header[0] == "gamma"
        assert rows
        assert os.path.exists(os.path.join(out, "fig3_plot.py"))

    @pytest.mark.parametrize("name, extra, n_rows", [
        # 2 database sizes x 1 skew x 1 alpha x 3 methods.
        ("fig4", ["--gamma-grid", "3.0", "--batch-samples", "2000"], 6),
        # 2 database sizes x 2 skews.
        ("fig5", ["--gamma-grid", "1.0,3.0"], 4),
    ])
    def test_database_size_figures(self, tmp_path, capsys, name, extra, n_rows):
        out = str(tmp_path / name)
        code = main([name, "--alpha", "4", "--trials", "2000", "--n-files-list", "5,10",
                     "--seed", "3", "--out-dir", out, "--validate"] + extra)
        assert code == 0
        meta, _, rows = read_csv(os.path.join(out, f"{name}.csv"))
        assert meta[f"{name}_n_files"] == "(5, 10)"
        assert len(rows) == n_rows
        assert {row["n_files"] for row in rows} == {5.0, 10.0}
        assert os.path.exists(os.path.join(out, f"{name}_plot.py"))
        assert f"({n_rows} rows)" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("trials = 1000\nseed = 1\nn_files = 4\n")
        out = str(tmp_path / "o2")
        code = main(["ccdf", "--config", str(cfg_file), "--seed", "9",
                     "--out-dir", out, "--x-grid", "1.0"])
        assert code == 0
        meta, _, _ = read_csv(os.path.join(out, "ccdf.csv"))
        assert meta["seed"] == "9"       # flag wins
        assert meta["trials"] == "1000"  # file wins over default
        assert meta["n_files"] == "4"

    def test_list_flag_and_config_file_line_parse_alike(self, tmp_path):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("gamma_grid = 0, 1.5 3\nfig4_n_files = 5,50\n")
        from_file = resolve_config(build_parser().parse_args(["fig4", "--config", str(cfg_file)]))
        from_flags = resolve_config(build_parser().parse_args(
            ["fig4", "--gamma-grid", "0, 1.5 3", "--n-files-list", "5,50"]))
        assert from_file == from_flags
        assert from_file.gamma_grid == (0.0, 1.5, 3.0)
        assert from_file.fig4_n_files == (5, 50)

    def test_validate_seed_42_reports_byte_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        small = ["--trials", "4000", "--batch-samples", "4000"]
        assert main(["validate", "--seed", "42", "--out-dir", out1] + small) == 0
        assert main(["validate", "--seed", "42", "--out-dir", out2] + small) == 0
        r1 = open(os.path.join(out1, "validate_report.txt"), "rb").read()
        r2 = open(os.path.join(out2, "validate_report.txt"), "rb").read()
        assert r1 == r2

    def test_validate_corrupted_tolerance_exits_one(self, tmp_path):
        code = main(["validate", "--seed", "42", "--trials", "100",
                     "--mc-tol", "1e-30", "--out-dir", str(tmp_path / "v")])
        assert code == 1

    @pytest.mark.parametrize("mc_tol", ["inf", "-0.01"])
    def test_invalid_mc_tol_exits_two(self, tmp_path, capsys, mc_tol):
        code = main(["validate", "--mc-tol", mc_tol, "--trials", "1000",
                     "--out-dir", str(tmp_path / "v")])
        assert code == 2
        assert "configuration error: mc_tol" in capsys.readouterr().err

    def test_configuration_error_exits_two(self, tmp_path):
        code = main(["fig3", "--alpha", "1.5", "--out-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["ccdf", "--x-grid", "abc"],
        ["ccdf", "--x-grid", ","],
        ["laplace", "--s-grid", "1,x"],
    ])
    def test_unparsable_curve_grid_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_file_count_exits_two(self, tmp_path, capsys):
        code = main(["fig5", "--n-files-list", "5,2.5", "--gamma-grid", "1",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--n-files", "2.5", "--out-dir", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["fig5", "--theta", "inf", "--n-files-list", "5"],
        ["fig5", "--theta", "nan", "--n-files-list", "5"],
        ["fig3", "--alpha", "inf"],
        ["fig3", "--lambda", "inf"],
    ])
    def test_nonfinite_inputs_exit_two_before_any_run(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--gamma-grid", "1", "--trials", "100",
                                "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0,-1", "0,nan", "1,inf"])
    def test_bad_skew_exits_two_before_any_run(self, tmp_path, capsys, grid):
        # "configuration error" is printed only for a config that fails its
        # checks; an error raised inside a sweep reads "error".
        code = main(["fig3", "--gamma-grid", grid, "--trials", "100",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "configuration error: every skew" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        code = main(["validate", "--seed", "-1", "--out-dir", str(tmp_path / "v")])
        assert code == 2
        assert "configuration error: seed" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path):
        code = main(["fig3", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_laplace_subcommand(self, tmp_path):
        out = str(tmp_path / "lp")
        code = main(["laplace", "--alpha", "4", "--ratio", "0.1",
                     "--s-grid", "1.0,100.0", "--out-dir", out])
        assert code == 0
        _, _, rows = read_csv(os.path.join(out, "laplace.csv"))
        assert rows[0]["laplace"] == pytest.approx(0.056141, abs=1e-5)

    def test_laplace_rejects_infinite_tolerance(self, tmp_path, capsys):
        code = main(["laplace", "--tol", "inf", "--out-dir", str(tmp_path / "lp")])
        assert code == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "lp").exists()

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "snratio.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fig3" in proc.stdout
