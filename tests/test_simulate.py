"""The Monte Carlo oracle: point sampling, shot noise, and SIR trials."""

import functools
import math
import operator
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from snratio import (
    DiskRegion,
    PopularityProfile,
    RatioSpec,
    Scenario,
    TrialConfig,
    baseline_delivery_prob,
    conditional_delivery_prob,
    default_region,
    empirical_ratio_ccdf,
    mc,
    ratio_ccdf_estimates,
    ratio_laplace,
    ratio_laplace_estimate,
    ratio_samples,
    shot_noise_samples,
    simulate,
    simulate_sir_aligned,
    simulate_sir_baseline,
    simulate_total_aligned,
    simulate_total_baseline,
    simulate_totals,
    sir_samples_aligned,
    sir_samples_baseline,
    substream,
)
from snratio.delivery import FadingBatch
from snratio.errors import ParameterDomainError
from snratio.experiments import zipf_remainder_profile
from snratio.mc import CoMoments, Moments
from snratio.popularity import decompose_densities
from snratio.simulate import (
    _AlignedModel,
    _coupled_shot_sums,
    _disk_points,
    _FileRecords,
    _Geometry,
    _NearestHelperModel,
    _path_gains,
    _shot_chunk,
    _SirChunk,
    _trial_sums,
    aligned_regions,
    ratio_regions,
    tail_mean,
    window_doubling_probe,
)


def _coupled_chunk(density, alpha, region, rng, n_trials):
    """The coupled sums of ``n_trials`` trials, points drawn on the doubled disk."""
    big = region.doubled()
    points = _disk_points(rng, density * big.area, big.radius, n_trials)
    return _coupled_shot_sums(density, alpha, region, big, *points)


def _tail_sd(density, alpha, radius):
    """Standard deviation of the shot noise beyond ``radius``, by Campbell's
    theorem: its variance is density * int_R^inf r**(-2 alpha) 2 pi r dr."""
    return math.sqrt(2.0 * math.pi * density * radius ** (2.0 - 2.0 * alpha)
                     / (2.0 * alpha - 2.0))


def _stable_scale(density, alpha):
    """Scale (pi density Gamma(1 - 2/alpha))**(alpha/2) of the shot noise's stable law."""
    return (math.pi * density * math.gamma(1.0 - 2.0 / alpha)) ** (alpha / 2.0)


class TestRegions:
    def test_default_region_meets_relative_tail_tolerance(self):
        # Where the rule binds, the tail spread is tol times the stable scale.
        for density, alpha, tol in ((0.1, 3.0, 1e-4), (0.5, 4.0, 1e-5), (1e-3, 2.5, 1e-3),
                                    (100.0, 3.0, 1e-4), (0.02, 6.0, 1e-6)):
            r = default_region(density, alpha, tol).radius
            assert r > simulate.COVERAGE_FACTOR / math.sqrt(density)
            assert _tail_sd(density, alpha, r) == pytest.approx(
                tol * _stable_scale(density, alpha), rel=1e-12)

    def test_default_region_never_below_rule(self):
        # Floor or rule, the tail spread never exceeds tol times the stable scale.
        for density in (1e-3, 0.1, 10.0):
            for alpha in (2.2, 3.0, 4.0):
                for tol in (1e-2, 1e-3, 1e-4):
                    r = default_region(density, alpha, tol).radius
                    assert (_tail_sd(density, alpha, r)
                            <= tol * _stable_scale(density, alpha) * (1 + 1e-12))

    @pytest.mark.parametrize("density", [1e-4, 0.1, 10.0])
    def test_default_tail_tol_gives_the_coverage_floor(self, density):
        # At the default tail_tol the floor binds for every alpha > 2, with
        # the radius computed as COVERAGE_FACTOR / sqrt(density), bit for bit.
        tol = TrialConfig(trials=1).tail_tol
        for alpha in np.linspace(2.0, 8.0, 121)[1:]:
            region = default_region(density, float(alpha), tol)
            assert region.radius == simulate.COVERAGE_FACTOR / math.sqrt(density)

    def test_default_region_tail_spread_matches_sampled_annulus(self):
        # The coupled sums differ by the points between R and 2R and the
        # difference of the tail means, so their spread is the tail's spread
        # at R less the part beyond 2R: that at R times sqrt(1 - 2**(2 - 2 alpha)).
        density, alpha, tol = 0.1, 3.0, 1e-3
        region = default_region(density, alpha, tol)
        diffs = np.concatenate([np.subtract(*_coupled_chunk(density, alpha, region,
                                                            substream(29, i), 5000))
                                for i in range(4)])
        want = tol * _stable_scale(density, alpha) * math.sqrt(1.0 - 2.0 ** (2.0 - 2.0 * alpha))
        assert np.std(diffs, ddof=1) == pytest.approx(want, rel=0.03)

    def test_window_that_cannot_be_held_raises_before_drawing(self):
        sc = Scenario.from_zipf(5, 1.0, 5.0, 3.0)
        spec = RatioSpec(0.02, 0.1, 3.0)
        cfg = TrialConfig(trials=1000, tail_tol=1e-9)
        calls = (lambda: simulate_sir_aligned(sc, 0, cfg),
                 lambda: sir_samples_baseline(sc, 0, cfg),
                 lambda: simulate_totals(sc, cfg),
                 lambda: shot_noise_samples(0.1, 3.0, cfg),
                 lambda: ratio_ccdf_estimates([1.0], spec, cfg),
                 lambda: window_doubling_probe(1.0, [spec], cfg),
                 # Each window fits at alpha = 4 alone; the alpha = 3 spec's
                 # larger windows, on which both are drawn, do not: at
                 # tail_tol 1.3e-5 its denominator window has radius 198.7.
                 lambda: window_doubling_probe(
                     1.0, [replace(spec, alpha=4.0), spec], replace(cfg, tail_tol=1.3e-5)))
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(ParameterDomainError,
                                   match=r"window of radius \S+ expects \S+ points per chunk"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_crowded_window_is_held(self):
        # tail_tol 1.3e-4 at alpha = 3 and density 0.1: an interference
        # window of radius 62.9, about 1250 points a trial.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 3.0)
        sim = simulate_sir_aligned(sc, 0, TrialConfig(1000, tail_tol=1.3e-4))
        want = conditional_delivery_prob(0, sc, FadingBatch(20_000, seed=5))
        assert abs(sim.mean - want.mean) < 3.0 * math.hypot(sim.stderr, want.stderr)

    def test_coverage_floor_kicks_in_at_low_density(self):
        region = default_region(1e-4, 4.0, 1e-2)
        assert 1e-4 * region.area >= 100.0

    def test_rejects_bad_radius(self):
        with pytest.raises(ParameterDomainError):
            DiskRegion(0.0)

    @pytest.mark.parametrize("region", [None, DiskRegion(5.0)])
    @pytest.mark.parametrize("density, alpha", [
        (0.1, 2.0), (0.1, 1.5), (0.1, math.inf), (0.1, math.nan),
        (-1.0, 3.0), (0.0, 3.0), (math.nan, 3.0), (math.inf, 3.0)])
    def test_shot_noise_domain_is_checked_whatever_the_region(self, density, alpha, region):
        # With an explicit region too: there alpha = 2 would divide by zero
        # and alpha = 1.5 would give negative shot noise.
        with pytest.raises(ParameterDomainError, match="density|alpha"):
            shot_noise_samples(density, alpha, TrialConfig(trials=10), region)


class TestDensityInvariance:
    """Scaling the plane by sqrt(c) maps a density lam process onto one of
    density c * lam, and the default windows scale with it: every estimate
    is the same at both densities, the shot noise times c**(alpha/2)."""

    @pytest.fixture(params=[(3.0, 1e-2), (3.0, 1e-4), (4.0, 1e-2), (4.0, 1e-4)],
                    ids=lambda p: f"alpha{p[0]}-tol{p[1]}")
    def alpha_tol(self, request):
        return request.param

    @staticmethod
    def _close(a, b):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1e-2, 1e2])
    def test_shot_noise_scales_as_the_stable_law(self, alpha_tol, c):
        alpha, tol = alpha_tol
        cfg = TrialConfig(trials=2000, seed=51, tail_tol=tol)
        base = shot_noise_samples(0.1, alpha, cfg)
        scaled = shot_noise_samples(0.1 * c, alpha, cfg) / c ** (alpha / 2.0)
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("c", [1e-2, 1e2])
    def test_ratio_ccdf_does_not_depend_on_density(self, alpha_tol, c):
        alpha, tol = alpha_tol
        cfg = TrialConfig(trials=1000, seed=52, tail_tol=tol)
        xs = [0.25, 1.0, 4.0]
        base = ratio_ccdf_estimates(xs, RatioSpec(0.05, 0.1, alpha), cfg)
        scaled = ratio_ccdf_estimates(xs, RatioSpec(0.05 * c, 0.1 * c, alpha), cfg)
        for a, b in zip(scaled, base):
            self._close((a.mean, a.stderr), (b.mean, b.stderr))

    @pytest.mark.parametrize("c", [1e-2, 1e2])
    def test_totals_do_not_depend_on_density(self, alpha_tol, c):
        alpha, tol = alpha_tol
        cfg = TrialConfig(trials=600, seed=53, tail_tol=tol)
        base = simulate_totals(Scenario.from_zipf(5, 1.0, 5.0, alpha, 0.1), cfg)
        scaled = simulate_totals(Scenario.from_zipf(5, 1.0, 5.0, alpha, 0.1 * c), cfg)
        for a, b in zip(scaled, base):
            self._close((a.mean, a.stderr), (b.mean, b.stderr))


class TestSamplePpp:
    """Poisson points on a disk as the simulator draws them, one count per cell,
    each stored as its squared radius."""

    def test_mean_count(self):
        region = DiskRegion(30.0)
        counts, _ = _disk_points(substream(17, 0), 0.1 * region.area, region.radius, 2000)
        want = 0.1 * region.area
        se = math.sqrt(want / 2000)
        assert abs(np.mean(counts) - want) < 3.0 * se

    def test_void_probability(self):
        # lam * area = 0.01: empty windows show up with frequency e^-0.01.
        counts, _ = _disk_points(substream(18, 0), 0.01, 1.0, 10_000)
        empty = int((counts == 0).sum())
        want = math.exp(-0.01)
        assert abs(empty / 10_000 - want) < 3.0 * math.sqrt(want * (1 - want) / 10_000)

    def test_points_inside_region_and_deterministic(self):
        region = DiskRegion(7.0)
        mean = 0.5 * region.area
        counts, sq = _disk_points(substream(19, 0), mean, region.radius, (40, 3))
        assert counts.shape == (40, 3)
        assert sq.size == counts.sum() > 0
        assert np.all((sq >= 0.0) & (sq <= region.radius**2))
        again = _disk_points(substream(19, 0), mean, region.radius, (40, 3))
        for a, b in zip((counts, sq), again):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_shot_noise_matches_the_radius_form(self, alpha):
        # Path gains of squared radii against the radius form of the same
        # draws: r = R * sqrt(u), summed as r**-alpha by trial, plus the tail
        # mean.  One chunk, so the samples draw from substream(seed, 0).
        density, cfg = 0.1, TrialConfig(trials=3000, seed=57, tail_tol=1e-2)
        region = default_region(density, alpha, cfg.tail_tol)
        got = shot_noise_samples(density, alpha, cfg)
        rng = substream(cfg.seed, 0)
        counts = rng.poisson(density * region.area, size=cfg.trials)
        r = region.radius * np.sqrt(rng.random(int(counts.sum())))
        want = _trial_sums(r**-alpha, counts) + tail_mean(density, alpha, region.radius)
        np.testing.assert_allclose(got, want, rtol=8.0 * np.finfo(float).eps, atol=0.0)


class TestShotNoiseValue:
    """Shot-noise values as the sampler draws them, tail mean added."""

    def test_levy_goodness_of_fit(self):
        # alpha = 4, density 1/pi: sums follow the one-sided stable law with
        # scale pi/2; KS at the 1% level.
        density = 1.0 / math.pi
        samples = shot_noise_samples(density, 4.0,
                                     TrialConfig(trials=20_000, seed=23, tail_tol=5e-3))
        ks = stats.kstest(samples, stats.levy(scale=math.pi**3 * density**2 / 2.0).cdf)
        assert ks.pvalue > 0.01


class TestRatioCcdfEstimates:
    def test_zero_point_is_certain(self):
        spec = RatioSpec(0.01, 0.01, 3.0)
        est = empirical_ratio_ccdf(0.0, spec, TrialConfig(trials=2000, seed=3, tail_tol=1e-2))
        assert est.mean == 1.0

    def test_matches_closed_form(self):
        spec = RatioSpec(0.005, 0.005, 4.0)
        est = empirical_ratio_ccdf(4.0, spec, TrialConfig(trials=50_000, seed=5, tail_tol=1e-2))
        assert abs(est.mean - 0.2951672353) < 3.0 * est.stderr

    def test_scale_invariance(self):
        cfg = TrialConfig(trials=50_000, seed=6, tail_tol=1e-2)
        a = empirical_ratio_ccdf(2.0, RatioSpec(0.005, 0.005, 3.0), cfg)
        b = empirical_ratio_ccdf(2.0, RatioSpec(0.01, 0.01, 3.0),
                                 replace(cfg, seed=7))
        assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)

    def test_deterministic_and_partition_invariant(self):
        spec = RatioSpec(0.01, 0.02, 3.0)
        cfg = TrialConfig(trials=20_000, seed=8, tail_tol=1e-2)
        ref = ratio_ccdf_estimates([0.5, 2.0], spec, cfg)
        rep = ratio_ccdf_estimates([0.5, 2.0], spec, cfg)
        for p in (2, 5):
            par = ratio_ccdf_estimates([0.5, 2.0], spec, replace(cfg, partitions=p))
            assert par == ref
        assert rep == ref

    def test_window_doubling_within_one_stderr(self):
        cfg = TrialConfig(trials=20_000, seed=9, tail_tol=1e-2)
        specs = [RatioSpec(0.01, 0.02, alpha) for alpha in (3.0, 4.0)]
        for base, big in window_doubling_probe(2.0, specs, cfg):
            assert abs(base.mean - big.mean) < math.hypot(base.stderr, big.stderr)

    def test_tail_compensation_never_leaves_a_denominator_empty(self):
        # The pinned file's SPEC and small windows: about half the denominator
        # windows hold no point, yet every denominator is at least its
        # positive tail mean, so no trial is redrawn and every ratio is finite.
        spec, r1, r2 = RatioSpec(0.02, 0.1, 3.0), DiskRegion(3.0), DiskRegion(1.5)
        cfg = TrialConfig(trials=9000, seed=3, tail_tol=1e-2)
        tail = tail_mean(spec.lambda2, spec.alpha, r2.radius)
        den = _shot_chunk(spec.lambda2, spec.alpha, r2, substream(3, 0), cfg.trials)
        assert tail > 0.0 and np.all(den >= tail)
        assert np.any(den == tail)
        (est,) = ratio_ccdf_estimates([0.2], spec, cfg, r1, r2)
        assert est.resampled == 0
        assert np.all(np.isfinite(ratio_samples(spec, cfg, r1, r2)))

    def test_chunk_without_points_is_the_tail_mean_ratio(self):
        # One trial, both windows empty whatever the stream (about 4e-11
        # expected points): the sums are the tail means alone, in a float
        # array although no point was summed.
        spec = RatioSpec(1e-12, 2e-12, 3.0)
        r1, r2 = DiskRegion(3.0), DiskRegion(1.5)
        vals = ratio_samples(spec, TrialConfig(trials=1, seed=0), r1, r2)
        want = tail_mean(1e-12, 3.0, r1.radius) / tail_mean(2e-12, 3.0, r2.radius)
        assert vals.dtype == float
        assert vals[0] == pytest.approx(want, rel=1e-12)

    def test_coupled_sums_of_an_empty_window_are_the_tail_means(self):
        region = DiskRegion(1.0)
        base, big = _coupled_chunk(1e-9, 3.0, region, substream(0, 0), 4)
        assert base.dtype == big.dtype == float
        assert np.all(base == tail_mean(1e-9, 3.0, region.radius))
        assert np.all(big == tail_mean(1e-9, 3.0, 2.0 * region.radius))

    def test_laplace_estimate_matches_series(self):
        spec = RatioSpec(0.005, 0.0005, 4.0)
        est = ratio_laplace_estimate(1.0, spec, TrialConfig(trials=50_000, seed=12,
                                                            tail_tol=1e-2))
        want = ratio_laplace(1.0, spec)
        assert abs(est.mean - want) < 3.0 * est.stderr

    @pytest.mark.parametrize("x", [math.nan, -1.0])
    def test_bad_point_is_rejected_before_drawing(self, monkeypatch, x):
        def no_draw(*args, **kwargs):
            raise AssertionError("points were drawn")

        monkeypatch.setattr(simulate, "_disk_points", no_draw)
        spec, cfg = RatioSpec(0.01, 0.02, 3.0), TrialConfig(trials=100)
        for call in (lambda: ratio_ccdf_estimates([0.5, x], spec, cfg),
                     lambda: empirical_ratio_ccdf(x, spec, cfg),
                     lambda: window_doubling_probe(x, [spec], cfg)):
            with pytest.raises(ParameterDomainError, match="ccdf points"):
                call()

    def test_infinite_point_is_never_exceeded(self):
        spec, cfg = RatioSpec(0.01, 0.02, 3.0), TrialConfig(trials=500, seed=4, tail_tol=1e-2)
        (est,) = ratio_ccdf_estimates([math.inf], spec, cfg)
        ((base, big),) = window_doubling_probe(math.inf, [spec], cfg)
        assert est.mean == base.mean == big.mean == 0.0


class TestWindowDoublingProbe:
    """Several exponents probed on one draw of the two processes."""

    SPECS = [RatioSpec(0.01, 0.02, alpha) for alpha in (3.0, 4.0)]

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_shared_draw_has_the_bits_of_single_spec_calls(self, partitions):
        cfg = TrialConfig(trials=6000, seed=31, tail_tol=1e-2, partitions=partitions)
        # Both exponents get the floor windows, 60 and 42.4.
        assert len({ratio_regions(spec, cfg) for spec in self.SPECS}) == 1
        together = window_doubling_probe(2.0, self.SPECS, cfg)
        assert together == [window_doubling_probe(2.0, [spec], cfg)[0] for spec in self.SPECS]

    @pytest.mark.parametrize("specs", [
        [],
        [RatioSpec(0.01, 0.02, 3.0), RatioSpec(0.01, 0.03, 4.0)],
        [RatioSpec(0.01, 0.02, 3.0), RatioSpec(0.02, 0.02, 3.0)],
    ])
    def test_rejects_no_specs_and_unshared_densities(self, specs):
        with pytest.raises(ParameterDomainError):
            window_doubling_probe(2.0, specs, TrialConfig(trials=100))

    def test_differing_windows_agree_with_single_spec_calls(self):
        # At tail_tol 7.2e-4 the alpha = 3 windows rise above their floors
        # (84.4 against 60 and 59.7 against 42.4), so the alpha = 4 spec is
        # drawn on the larger disks: a new stream of the same process.  The
        # alpha = 3 spec sets both drawn disks and keeps its bits.
        cfg = TrialConfig(trials=10_000, seed=32, tail_tol=7.2e-4)
        (_, den3), (_, den4) = (ratio_regions(spec, cfg) for spec in self.SPECS)
        assert den3.radius > den4.radius
        together = window_doubling_probe(2.0, self.SPECS, cfg)
        alone = [window_doubling_probe(2.0, [spec], cfg)[0] for spec in self.SPECS]
        assert together[0] == alone[0]
        for pair, ref in zip(together, alone):
            for a, b in zip(pair, ref):
                assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)


class TestAlignedSir:
    @pytest.mark.parametrize("k", [1.0, 1.5, True, -1, 10])
    @pytest.mark.parametrize("entry", [simulate_sir_aligned, sir_samples_aligned,
                                       simulate_sir_baseline, sir_samples_baseline,
                                       aligned_regions])
    def test_file_index_is_checked(self, entry, k):
        sc = Scenario.from_zipf(10, 1.0, 5.0, 4.0, 0.1)
        with pytest.raises(ParameterDomainError, match="file index"):
            entry(sc, k, TrialConfig(trials=100, seed=1, tail_tol=1e-2))

    def test_doubled_windows_move_neither_model(self):
        # alpha = 3, where the tail decays slowest: the default windows hold
        # both models to within 3 combined stderr of windows twice as wide.
        sc = Scenario.from_zipf(10, 1.0, 5.0, 3.0, 0.1)
        cfg = TrialConfig(trials=20_000, seed=43, tail_tol=1e-2)
        sig, inter = (r.doubled() for r in aligned_regions(sc, 0, cfg))
        for run in (simulate_sir_aligned, simulate_sir_baseline):
            base = run(sc, 0, cfg)
            big = run(sc, 0, replace(cfg, seed=44), signal_region=sig, interference_region=inter)
            assert abs(base.mean - big.mean) < 3.0 * math.hypot(base.stderr, big.stderr)

    def test_modes_agree(self):
        sc = Scenario.from_zipf(10, 1.0, 5.0, 3.0, 0.1)
        a = simulate_sir_aligned(sc, 0, TrialConfig(trials=20_000, seed=13, tail_tol=1e-2),
                                 mode="complex")
        b = simulate_sir_aligned(sc, 0, TrialConfig(trials=20_000, seed=14, tail_tol=1e-2),
                                 mode="exponential")
        assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)

    def test_mode_distributions_agree_by_ks(self):
        sc = Scenario.from_zipf(10, 1.0, 5.0, 3.0, 0.1)
        n = 10_000
        a = sir_samples_aligned(sc, 0, TrialConfig(trials=n, seed=15, tail_tol=1e-2),
                                mode="complex")
        b = sir_samples_aligned(sc, 0, TrialConfig(trials=n, seed=16, tail_tol=1e-2),
                                mode="exponential")
        crit = 1.628 * math.sqrt(2.0 / n)
        assert stats.ks_2samp(a, b).statistic < crit

    def test_matches_expectation_form(self):
        sc = Scenario.from_zipf(50, 3.0, 5.0, 4.0, 0.1)
        sim = simulate_sir_aligned(sc, 0, TrialConfig(trials=20_000, seed=17, tail_tol=1e-2))
        closed = conditional_delivery_prob(0, sc, FadingBatch(100_000, 18))
        assert abs(sim.mean - closed.mean) < 3.0 * math.hypot(sim.stderr, closed.stderr)

    def test_single_file_always_succeeds(self):
        sc = Scenario(PopularityProfile([1.0]), 4.0, 5.0, 0.1)
        est = simulate_sir_aligned(sc, 0, TrialConfig(trials=100, seed=19))
        assert est.mean == 1.0

    def test_deterministic_under_partitions(self):
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=10_000, seed=20, tail_tol=1e-2)
        ref = simulate_sir_aligned(sc, 0, cfg)
        par = simulate_sir_aligned(sc, 0, replace(cfg, partitions=4))
        assert par == ref

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_empty_signal_window_without_compensation_fails(self, mode):
        # The requested file has no helpers: its window is empty and its tail
        # mean adds nothing, so G_0 = 0: SIR 0, not 0/0.
        sc = Scenario(PopularityProfile([0.5, 0.5, 0.0]), 4.0, 5.0, 0.1)
        cfg = TrialConfig(trials=5000, seed=27, tail_tol=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = simulate_sir_aligned(sc, 2, cfg, mode, DiskRegion(10.0), DiskRegion(20.0))
        assert est.mean == 0.0

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_empty_interference_window_without_compensation_succeeds(self, mode):
        # Only the requested file has helpers: every other file's cells are
        # empty and their tail means add nothing, so the interference is 0
        # and every trial succeeds (SIR = G_0 / 0 = inf, no warning).
        sc = Scenario(PopularityProfile([1.0, 0.0, 0.0]), 4.0, 5.0, 0.1)
        cfg = TrialConfig(trials=5000, seed=28, tail_tol=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = simulate_sir_aligned(sc, 0, cfg, mode, DiskRegion(10.0), DiskRegion(20.0))
        assert est.mean == 1.0

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_empty_interference_window_is_all_tail(self, mode):
        # No file has an interferer in the window; every (file, trial) cell is
        # empty, and the interference is the tail mean alone.  Beyond a disk
        # of radius 1e-6 that is about 3e11 per unit density, so delivery
        # (almost) never succeeds, and nothing divides by zero.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=5000, seed=28, tail_tol=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = simulate_sir_aligned(sc, 0, cfg, mode=mode,
                                       interference_region=DiskRegion(1e-6))
        assert 0.0 <= est.mean < 1e-20


def _make_geometry(sc, k, sig_region, int_region):
    """The geometry of trials that all request file ``k``, on the given windows."""
    return _Geometry(sc, int_region, np.array([k]), np.array([sig_region.radius]))


def _geometry(sc, k):
    return _make_geometry(sc, k, *aligned_regions(sc, k, TrialConfig(trials=1, tail_tol=1e-2)))


def _block(geometry, k, rng, n):
    """One block of ``n`` trials that all request file ``k``."""
    return geometry.geometry(rng, np.full(n, k))


def _other_tails(geometry, k):
    """Per file, its tail mean beyond the interference disk; 0 for the request ``k``."""
    tails = geometry.tails.copy()
    tails[k] = 0.0
    return tails


def _radii(gains, alpha):
    """The distances r whose path gains r**-alpha are ``gains``."""
    return gains ** (-1.0 / alpha)


def _aligned_model(sc, k, mode="exponential"):
    return _AlignedModel(_geometry(sc, k), mode)


class TestAlignedGeometry:
    @pytest.mark.parametrize("n_files, alpha, tail_tol", [(5, 4.0, 1e-2), (40, 4.0, 1e-2),
                                                          (5, 3.0, 1.3e-4)])
    def test_interferer_counts_and_trial_labels(self, n_files, alpha, tail_tol):
        # Marking theorem: per (trial, file) the counts are Poisson with mean
        # lambda_j * area; the requested file has none; labels are uniform.
        # At alpha = 3 and tail_tol 1.3e-4 the interference disk has radius
        # 62.9, about 250 points a cell.
        sc, k, n = Scenario.from_zipf(n_files, 1.0, 5.0, alpha, 0.1), 2, 4096
        regions = aligned_regions(sc, k, TrialConfig(trials=1, tail_tol=tail_tol))
        chunk = _block(_make_geometry(sc, k, *regions), k, substream(29, 0), n)
        file, trial = np.divmod(chunk.key, n)
        assert np.array_equal(trial, chunk.labels)
        # Uniform on the disk: the gains r**-alpha lie beyond R**-alpha.
        assert np.all(chunk.g >= regions[1].radius ** -alpha * (1.0 - 1e-12))
        area = regions[1].area
        dens = decompose_densities(sc.profile, sc.helper_density)
        counts = np.bincount(chunk.key, minlength=n_files * n).reshape(n_files, n)
        assert not counts[k].any()
        for j in (0, 1, 3, 4):
            mu = dens[j] * area
            assert abs(counts[j].mean() - mu) < 4.0 * math.sqrt(mu / n)
            assert abs(counts[j].var(ddof=1) - mu) < 4.0 * math.sqrt((mu + 2.0 * mu**2) / n)
        assert stats.chisquare(np.bincount(trial, minlength=n)).pvalue > 0.01

    def test_success_probability_is_the_fading_average(self):
        # Product form against its definition: on one fixed chunk's geometry,
        # the fraction of exponential fades with S > theta * I.
        sc, n, fades = Scenario.from_zipf(5, 1.0, 1.0, 4.0, 0.1), 4, 200_000
        model = _aligned_model(sc, 1)
        geometry, theta = model.geometry, sc.thresholds[1]
        chunk = _block(geometry, 1, substream(30, 0), n)
        p = model.success(None, chunk)
        file, trial = np.divmod(chunk.key, n)
        gains = np.zeros((5, n))
        np.add.at(gains, (file, trial), chunk.g)
        gains += _other_tails(geometry, 1)[:, None]
        radius = aligned_regions(sc, 1, TrialConfig(trials=1, tail_tol=1e-2))[0].radius
        r1 = _radii(chunk.g1, sc.alpha)
        g0 = chunk.g1 + tail_mean(geometry.lam[1], sc.alpha, np.maximum(r1, radius))
        np.add.at(g0, chunk.sig_trial, chunk.sig_g)
        want = np.prod(1.0 / (1.0 + theta * gains / g0), axis=0)
        np.testing.assert_allclose(p, want, rtol=1e-12)
        assert np.all((0.0 < p) & (p < 1.0))
        rng = np.random.default_rng(31)
        for t in range(n):
            signal = rng.exponential(size=fades) * g0[t]
            interference = rng.exponential(size=(fades, 5)) @ gains[:, t]
            hit = np.mean(signal > theta * interference)
            assert abs(hit - p[t]) < 4.0 * math.sqrt(p[t] * (1.0 - p[t]) / fades)

    @pytest.mark.parametrize("alpha", [2.0, 4.0, 6.0, 2.5, 3.0])
    def test_path_gains_of_squared_radii(self, alpha):
        # Where alpha / 2 is an integer m, a reciprocal times itself m - 1
        # times is within m ulps of the power; elsewhere it is the power, bit
        # for bit.  Squared radii over twelve decades, an infinite one (a
        # file with no helper) among them, and the result in place.
        sq = 10.0 ** substream(51, 0).uniform(-6.0, 6.0, 10_000)
        sq[7] = np.inf
        want = np.power(sq, -alpha / 2.0)
        got = _path_gains(sq, alpha)
        assert got is sq and got[7] == 0.0
        m = alpha / 2.0
        if m.is_integer():
            np.testing.assert_allclose(got, want, rtol=m * np.finfo(float).eps, atol=0.0)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_files", [5, 500])
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_success_product_matches_the_log_sum(self, n_files, alpha):
        # P(SIR > theta) = 1 / prod_j (1 + c G_j) against exp(-sum_j log1p(c G_j)),
        # its log-sum taken exactly by math.fsum.  At N = 500 the values reach
        # 1e-104, and a log-sum near 240 is within 1e-13 relative only if it
        # is summed exactly: numpy's running sum over the files is 3e-13 off.
        sc, k, n = Scenario.from_zipf(n_files, 1.0, 5.0, alpha, 0.1), 2, 300
        model = _aligned_model(sc, k)
        chunk = _block(model.geometry, k, substream(52, 0), n)
        c = sc.thresholds[k] / model.signal_gain(chunk)
        want = np.exp([-math.fsum(cells) for cells in np.log1p(c * model.gains(chunk)).T])
        got = model.success(None, chunk)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.all(got > 0.0)

    def test_success_is_zero_where_the_product_overflows(self):
        # One trial with no point of its own but a nearest one of gain 1e-30
        # and a tail-only interference: its log-sum is far above 745, where
        # exp(-log_q) is 0, so the product overflows and the value is 0.
        sc, k = Scenario.from_zipf(500, 1.0, 5.0, 4.0, 0.1), 0
        model = _aligned_model(sc, k)
        no_points, no_labels = np.zeros(0), np.zeros(0, dtype=np.int64)
        chunk = _SirChunk(np.array([k]), np.array([1e-30]), np.zeros(1),
                          np.zeros(1, dtype=np.int64), no_points, no_labels, no_labels, no_points)
        c = sc.thresholds[k] / model.signal_gain(chunk)
        assert np.log1p(c * model.gains(chunk)).sum() > 745.0
        assert model.success(None, chunk).tolist() == [0.0]

    def test_nearest_first_signal_gain_matches_the_disk_draw(self):
        # G_0 on the nearest-first geometry against a reference drawn by
        # _disk_points on the same disk, which is empty half the time: a trial
        # keeps its disk sum and the tail beyond R, and an empty disk is served
        # at sqrt(R^2 + E / (pi lambda_k)), E ~ Exp(1), with the tail beyond it.
        sc, k, n = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1), 1, 20_000
        lam = decompose_densities(sc.profile, sc.helper_density)[k]
        radius = math.sqrt(math.log(2.0) / (math.pi * lam))
        geometry = _make_geometry(sc, k, DiskRegion(radius), DiskRegion(5.0))
        g0 = _AlignedModel(geometry, "exponential").signal_gain(
            _block(geometry, k, substream(43, 0), n))
        rng = substream(44, 0)
        counts, sq = _disk_points(rng, lam * math.pi * radius**2, radius, n)
        ref = _trial_sums(sq ** (-sc.alpha / 2.0), counts) + tail_mean(lam, sc.alpha, radius)
        empty = counts == 0
        assert 0.45 < empty.mean() < 0.55
        r_s = np.sqrt(radius**2 + rng.exponential(size=empty.sum()) / (math.pi * lam))
        ref[empty] = r_s ** -sc.alpha + tail_mean(lam, sc.alpha, r_s)
        assert stats.ks_2samp(g0, ref).pvalue > 0.01

    @pytest.mark.parametrize("points", [math.log(2.0), None, 600.0])
    def test_signal_gain_is_the_exact_sum_of_each_trial(self, points):
        # G_0 summed by trial segment against math.fsum of each trial's
        # points, nearest point and tail.  Signal disks of ln 2 expected
        # points (about half of them empty, and many trials served within
        # them with an empty annulus), the default (about 113 points, under
        # numpy's 128-point pairwise block) and 600 (over it).  A trial with
        # no point on its annulus is g1 + tail exactly.
        sc, k, n = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1), 2, 400
        geometry = _geometry(sc, k)
        if points is not None:
            radius = math.sqrt(points / (math.pi * geometry.lam[k]))
            geometry = _make_geometry(sc, k, DiskRegion(radius), geometry.int_region)
        chunk = _block(geometry, k, substream(49, 0), n)
        g0 = _AlignedModel(geometry, "exponential").signal_gain(chunk)
        ends = np.cumsum(chunk.sig_counts)
        want = np.array([math.fsum([*chunk.sig_g[end - count:end], g1, tail]) for end, count, g1, tail
                         in zip(ends, chunk.sig_counts, chunk.g1, chunk.sig_tail)])
        np.testing.assert_allclose(g0, want, rtol=4.0 * np.finfo(float).eps, atol=0.0)
        empty = chunk.sig_counts == 0
        assert np.array_equal(g0[empty], chunk.g1[empty] + chunk.sig_tail[empty])
        if points is None:
            assert np.all((50 < chunk.sig_counts) & (chunk.sig_counts < 200))
        elif points > 1.0:
            assert np.all(chunk.sig_counts > 128)
        else:
            assert 0.3 < empty.mean() < 0.9

    def test_zero_popularity_request_has_no_signal(self):
        # A block whose middle trials request file 1, of popularity 0: they
        # have no point anywhere, so G_0 = 0 and both models give success
        # exactly 0, while the trials around them keep their exact sums.
        sc = Scenario(PopularityProfile([0.5, 0.0, 0.5]), 4.0, 5.0, 0.1)
        files = np.arange(3)
        geometry = _Geometry(sc, DiskRegion(20.0), files, np.full(3, 10.0))
        req = np.repeat(files, [100, 50, 100])
        chunk = geometry.geometry(substream(50, 0), req)
        g0 = _AlignedModel(geometry, "exponential").signal_gain(chunk)
        zero = req == 1
        assert not chunk.sig_counts[zero].any()
        assert np.all(g0[zero] == 0.0) and np.all(g0[~zero] > 0.0)
        ends = np.cumsum(chunk.sig_counts)
        for t in np.flatnonzero(~zero):
            points = chunk.sig_g[ends[t] - chunk.sig_counts[t]:ends[t]]
            want = math.fsum([*points, chunk.g1[t], chunk.sig_tail[t]])
            assert g0[t] == pytest.approx(want, rel=4.0 * np.finfo(float).eps, abs=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aligned = _AlignedModel(geometry, "exponential").success(None, chunk)
            nearest = _NearestHelperModel(geometry).success(None, chunk)
        for p in (aligned, nearest):
            assert np.all(p[zero] == 0.0) and np.all(p[~zero] > 0.0)

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_chunk_of_one_block_is_one_geometry(self, mode):
        # Trials that fit one block draw one geometry, and every method reads
        # it and then draws from the same stream: both the moment runs and the
        # sample gatherers give exactly method(rng, geometry.geometry(rng, req)).
        sc, k, seed = Scenario.from_zipf(7, 1.0, 5.0, 4.0, 0.1), 3, 32
        geometry = _geometry(sc, k)
        n = geometry.block_trials
        assert 100 < n < mc.CHUNK_TRIALS
        cfg = TrialConfig(trials=n, seed=seed, tail_tol=1e-2)

        def direct(method):
            rng = substream(seed, 0)
            return method(rng, _block(geometry, k, rng, n))

        aligned, nearest = _AlignedModel(geometry, mode), _NearestHelperModel(geometry)
        assert simulate_sir_aligned(sc, k, cfg, mode) == Moments.of(
            direct(aligned.success)).estimate(seed)
        assert simulate_sir_baseline(sc, k, cfg) == Moments.of(
            direct(nearest.success)).estimate(seed)
        assert np.array_equal(sir_samples_aligned(sc, k, cfg, mode), direct(aligned.sir))
        assert np.array_equal(sir_samples_baseline(sc, k, cfg), direct(nearest.sir))

    def test_small_blocks_agree_with_the_default(self, monkeypatch):
        # Blocks of 2 trials in place of 300 to 370 draw other streams, with
        # the same law: both totals and the gain agree within 4 combined stderr.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=8000, seed=46, tail_tol=1e-2)
        ref = simulate_totals(sc, cfg)
        monkeypatch.setattr(simulate, "_BLOCK_POINTS", 500)
        assert _geometry(sc, 0).block_trials == 2
        small = simulate_totals(sc, cfg)
        for a, b in zip(ref, small):
            assert a.mean != b.mean
            assert abs(a.mean - b.mean) < 4.0 * math.hypot(a.stderr, b.stderr)

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_chunk_memory_is_bounded_in_n_files(self, mode):
        # The 4096 x 5000 (trial, file) sums alone would take 164 MB in one block.
        sc = Scenario.from_zipf(5000, 0.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=4096, seed=34, tail_tol=1e-2)
        tracemalloc.start()
        try:
            simulate_sir_aligned(sc, 0, cfg, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_chunk_memory_is_bounded_in_points_per_trial(self, mode):
        # alpha = 3 at tail_tol 1.3e-4: about 1250 points a trial on each
        # disk, so about 10 M points and 80 MB of gains in a chunk of 4096
        # trials, were it drawn at once.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 3.0, 0.1)
        cfg = TrialConfig(trials=4096, seed=3, tail_tol=1.3e-4)
        tracemalloc.start()
        try:
            simulate_totals(sc, cfg, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _total_geometry(sc, trials=1):
    """The geometry a total of ``sc`` runs on: every file requested, on its default windows."""
    return simulate._sir_geometry(sc, TrialConfig(trials=trials, tail_tol=1e-2),
                                  np.arange(sc.n_files))


class TestMixedGeometry:
    """Blocks of trials whose requests differ, as the totals draw them."""

    def test_no_point_of_a_file_lies_on_a_trial_that_requests_it(self):
        # Marking and thinning: per (file, trial) cell the count is Poisson of
        # mean lambda_j * area unless the trial requests j, where it is 0; a
        # file's points are uniform over the trials that do not request it.
        sc, n = Scenario.from_zipf(6, 1.0, 5.0, 4.0, 0.1), 4096
        geometry = _total_geometry(sc)
        req = np.repeat(np.arange(1, 5), [1500, 1200, 896, 500])
        chunk = geometry.geometry(substream(47, 0), req)
        file, trial = np.divmod(chunk.key, n)
        assert np.array_equal(trial, chunk.labels)
        assert not np.any(file == req[trial])
        counts = np.bincount(chunk.key, minlength=6 * n).reshape(6, n)
        for j in range(6):
            others = req != j
            mu = geometry.int_means[j]
            cells = counts[j, others]
            assert abs(cells.mean() - mu) < 4.0 * math.sqrt(mu / cells.size)
            assert stats.chisquare(cells).pvalue > 0.01 or cells.sum() < 5 * cells.size
        # A requested file's labels are uniform over the trials before and
        # after its own run.
        for j in (1, 4):
            hits = np.bincount(trial[file == j], minlength=n)[req != j]
            assert stats.chisquare(hits).pvalue > 0.01

    def test_one_request_block_is_the_conditional_geometry(self):
        # A block of a total whose trials all request k draws the bits of
        # the conditional geometry of k, and the aligned model reads them
        # with the same bits.  The nearest-helper model takes the other files'
        # tails as a difference, within rounding of the conditional sum; a
        # success of 1e-98 is exp(-225), so that rounding grows about 225-fold.
        sc, n = Scenario.from_zipf(7, 1.0, 5.0, 4.0, 0.1), 250
        total = _total_geometry(sc)
        for k in (0, 3, 6):
            alone = _geometry(sc, k)
            a = total.geometry(substream(48, k), np.full(n, k))
            b = alone.geometry(substream(48, k), np.full(n, k))
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
            assert np.array_equal(_AlignedModel(total, "exponential").success(None, a),
                                  _AlignedModel(alone, "exponential").success(None, b))
            np.testing.assert_allclose(_NearestHelperModel(total).success(None, a),
                                       _NearestHelperModel(alone).success(None, b),
                                       rtol=1e-12)


_CONDITIONAL_ENTRIES = [simulate_sir_aligned, sir_samples_aligned, simulate_sir_baseline,
                        sir_samples_baseline]


class TestSirGeometry:
    """The one geometry builder of every SIR run, and its default windows."""

    #: File 2 has popularity 0: it has no helper, and no default signal window.
    ZERO = Scenario(PopularityProfile([0.5, 0.5, 0.0]), 4.0, 5.0, 0.1)

    @pytest.mark.parametrize("tail_tol", [1e-2, 1e-4])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_default_windows_are_the_aligned_regions(self, monkeypatch, alpha, tail_tol):
        # The radii handed to the geometry, for all files at once (a total)
        # and for each alone (a conditional run), bit for bit.
        sc = Scenario.from_zipf(7, 1.2, 5.0, alpha, 0.1)
        cfg = TrialConfig(trials=1, tail_tol=tail_tol)
        monkeypatch.setattr(simulate, "_Geometry",
                            lambda scenario, int_region, files, sig_radii: (int_region, sig_radii))
        files = np.arange(sc.n_files)
        int_region, radii = simulate._sir_geometry(sc, cfg, files)
        for k in files.tolist():
            sig, inter = aligned_regions(sc, k, cfg)
            alone = simulate._sir_geometry(sc, cfg, np.array([k]))
            assert int_region == inter == alone[0]
            assert radii[k] == sig.radius == alone[1][0]

    @pytest.mark.parametrize("entry", _CONDITIONAL_ENTRIES)
    def test_zero_popularity_request_runs_on_a_given_signal_window(self, entry):
        # Only the interference window takes its default, at the helper
        # density; no trial of file 2 finds a helper, so each one fails.
        cfg = TrialConfig(trials=5000, seed=27, tail_tol=1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = entry(self.ZERO, 2, cfg, signal_region=DiskRegion(10.0))
        if isinstance(result, np.ndarray):
            assert result.shape == (cfg.trials,) and np.all(result == 0.0)
        else:
            assert (result.mean, result.stderr, result.trials) == (0.0, 0.0, cfg.trials)

    @pytest.mark.parametrize("entry", _CONDITIONAL_ENTRIES)
    def test_zero_popularity_request_has_no_default_signal_window(self, monkeypatch, entry):
        def no_trials(*args, **kwargs):
            raise AssertionError("trials were run")

        monkeypatch.setattr(simulate, "run_counting_chunks", no_trials)
        monkeypatch.setattr(simulate, "gather_chunked_samples", no_trials)
        cfg = TrialConfig(trials=100, seed=27, tail_tol=1e-2)
        for int_region in (None, DiskRegion(20.0)):
            with pytest.raises(ParameterDomainError, match="file 2 has popularity 0"):
                entry(self.ZERO, 2, cfg, interference_region=int_region)


class TestBaselineSir:
    def test_matches_closed_form(self):
        for a_k in (0.5, 1.0):
            profile = (zipf_remainder_profile(a_k, 10) if a_k < 1
                       else PopularityProfile([1.0]))
            sc = Scenario(profile, 4.0, 5.0, 0.1)
            sim = simulate_sir_baseline(sc, 0, TrialConfig(trials=20_000, seed=21,
                                                           tail_tol=1e-2))
            want = baseline_delivery_prob(a_k, 5.0, 4.0)
            assert abs(sim.mean - want) < 3.0 * sim.stderr

    def test_empty_signal_disks_keep_the_closed_form(self):
        # About 8% of the signal disks are empty.  Their trials are served by
        # the exact nearest helper beyond the disk; redrawing them on a larger
        # disk would bias the mean up by about 8 stderr here.
        sc = Scenario(zipf_remainder_profile(0.5, 4), 4.0, 5.0, 0.1)
        cfg = TrialConfig(trials=40_000, seed=42, tail_tol=1e-2)
        est = simulate_sir_baseline(sc, 0, cfg, DiskRegion(4.0), DiskRegion(40.0))
        assert est.resampled == 0
        assert abs(est.mean - baseline_delivery_prob(0.5, 5.0, 4.0)) < 3.0 * est.stderr

    def test_serving_distance_follows_the_nearest_point_law(self):
        # The signal disk holds a point with probability 1/2.  Within it or
        # beyond it, r_1 has the nearest-point law of the requested file's
        # process in the plane: P(r_1 <= r) = 1 - exp(-lambda_k pi r^2).
        sc, k, n = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1), 1, 4000
        lam = decompose_densities(sc.profile, sc.helper_density)[k]
        radius = math.sqrt(math.log(2.0) / (math.pi * lam))
        geometry = _make_geometry(sc, k, DiskRegion(radius), DiskRegion(5.0))
        chunk = _block(geometry, k, substream(42, 0), n)
        r1, sig_r = _radii(chunk.g1, sc.alpha), _radii(chunk.sig_g, sc.alpha)
        beyond = r1 > radius
        assert 0.45 < beyond.mean() < 0.55
        assert stats.kstest(r1, lambda r: -np.expm1(-lam * math.pi * r**2)).pvalue > 0.01
        # The other points lie between the server and the edge of the disk.
        assert np.all((chunk.g1[chunk.sig_trial] >= chunk.sig_g)
                      & (sig_r <= radius * (1.0 + 1e-12)))
        assert not beyond[chunk.sig_trial].any()
        # The requested file's tail is taken beyond the server where it lies beyond the disk.
        np.testing.assert_allclose(chunk.sig_tail[beyond],
                                   tail_mean(lam, sc.alpha, r1[beyond]), rtol=1e-12)
        assert np.all(chunk.sig_tail[~beyond] == tail_mean(lam, sc.alpha, radius))

    def test_every_signal_disk_empty(self):
        # About 1e-10 helpers per unit area of the requested file: no trial
        # finds one on the disk, and every one is served beyond it.
        sc = Scenario(zipf_remainder_profile(1e-6, 3), 4.0, 5.0, 1e-4)
        cfg = TrialConfig(trials=50, seed=23, tail_tol=1e-2)
        regions = (DiskRegion(0.5), DiskRegion(5.0))
        est = simulate_sir_baseline(sc, 0, cfg, *regions)
        assert est.resampled == 0 and 0.0 <= est.mean <= 1.0
        sir = sir_samples_baseline(sc, 0, cfg, *regions)
        assert np.all(np.isfinite(sir) & (sir >= 0.0))

    def test_zero_popularity_file_has_no_server(self):
        # lambda_k = 0: no helper anywhere, so every trial fails, silently.
        sc = Scenario(PopularityProfile([0.5, 0.5, 0.0]), 4.0, 5.0, 0.1)
        cfg = TrialConfig(trials=5000, seed=27, tail_tol=1e-2)
        regions = (DiskRegion(10.0), DiskRegion(20.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_sir_baseline(sc, 2, cfg, *regions)
            sir = sir_samples_baseline(sc, 2, cfg, *regions)
        assert est.mean == 0.0
        assert np.all(sir == 0.0)

    @staticmethod
    def _product_form(geometry, chunk):
        """Per-trial product form, trial by trial from the raw geometry.

        A trial is served at its ``r1``, inside the signal disk of radius R
        or beyond it, and its own file's tail is taken beyond max(R, r1);
        every other file's tail adds in full.
        """
        n, alpha = chunk.n, geometry.alpha
        int_trial = chunk.key % n
        want = np.empty(n)
        for t in range(n):
            k = chunk.req[t]
            r_s = _radii(chunk.g1[t], alpha)
            tau_sig = tail_mean(geometry.lam[k], alpha, max(r_s, math.sqrt(geometry.outer[k])))
            x = geometry.theta[k] * r_s ** alpha
            others = np.concatenate((chunk.sig_g[chunk.sig_trial == t], chunk.g[int_trial == t]))
            want[t] = (math.exp(-x * (tau_sig + _other_tails(geometry, k).sum()))
                       * np.prod(1.0 / (1.0 + x * others)))
        return want

    @pytest.mark.parametrize("n_files", [1, 5, 40])
    def test_product_form_from_raw_geometry(self, n_files):
        sc, n = Scenario.from_zipf(n_files, 1.0, 1.0, 4.0, 0.1), 300
        self._check_product_form(_geometry(sc, n_files // 2), np.full(n, n_files // 2))

    @pytest.mark.parametrize("n_files", [1, 5])
    def test_product_form_with_empty_signal_disks(self, n_files):
        # A signal disk of radius 2 is empty for about 28% (N = 1) and 83%
        # (N = 5) of the trials.
        sc, k, n = Scenario.from_zipf(n_files, 1.0, 1.0, 4.0, 0.1), n_files // 2, 300
        geometry = _make_geometry(sc, k, DiskRegion(2.0), _geometry(sc, k).int_region)
        self._check_product_form(geometry, np.full(n, k))

    def test_product_form_on_mixed_requests(self):
        # Trials of five requests in one block, each on its own signal disk.
        sc = Scenario.from_zipf(5, 1.0, 1.0, 4.0, 0.1)
        files = np.arange(5)
        radii = np.array([aligned_regions(sc, k, TrialConfig(trials=1))[0].radius
                          for k in files])
        geometry = _Geometry(sc, _geometry(sc, 0).int_region, files, radii)
        self._check_product_form(geometry, np.repeat(files, [90, 70, 60, 50, 30]))

    def _check_product_form(self, geometry, req):
        chunk = geometry.geometry(substream(35, 0), req)
        p = _NearestHelperModel(geometry).success(None, chunk)  # it draws nothing
        want = self._product_form(geometry, chunk)
        np.testing.assert_allclose(p, want, rtol=1e-12)

    def test_product_form_is_the_fading_average(self):
        # On one chunk's geometry (small windows, so few points), the fraction
        # of exponential fades with h_s g_s > theta * (sum_i h_i g_i + tails).
        sc, fades = Scenario.from_zipf(5, 1.0, 1.0, 4.0, 0.1), 100_000
        geometry = _make_geometry(sc, 1, DiskRegion(8.0), DiskRegion(8.0))
        chunk = _block(geometry, 1, substream(36, 0), 64)
        p = _NearestHelperModel(geometry).success(None, chunk)
        int_trial = chunk.key % chunk.n
        rng = np.random.default_rng(37)
        for t in range(4):
            r_s = _radii(chunk.g1[t], sc.alpha)
            tails = (tail_mean(geometry.lam[1], sc.alpha, max(r_s, 8.0))
                     + _other_tails(geometry, 1).sum())
            g = np.concatenate((chunk.sig_g[chunk.sig_trial == t], chunk.g[int_trial == t]))
            signal = rng.exponential(size=fades) * chunk.g1[t]
            interference = rng.exponential(size=(fades, g.size)) @ g + tails
            hit = np.mean(signal > sc.thresholds[1] * interference)
            assert 0.0 < p[t] < 1.0
            assert abs(hit - p[t]) < 4.0 * math.sqrt(p[t] * (1.0 - p[t]) / fades)

    def test_sampled_fades_agree_with_the_product_form(self):
        # On the default signal disk, and on one of radius 2 that is empty for
        # about 83% of the trials, whose servers and tails lie beyond it.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=20_000, seed=38, tail_tol=1e-2)
        for signal_region in (None, DiskRegion(2.0)):
            hits = sir_samples_baseline(sc, 2, cfg, signal_region) > sc.thresholds[2]
            indicator = Moments.of(hits).estimate(cfg.seed)
            product = simulate_sir_baseline(sc, 2, cfg, signal_region)
            assert abs(indicator.mean - product.mean) < 4.0 * math.hypot(indicator.stderr,
                                                                        product.stderr)


class TestTotals:
    def test_total_mixes_strata_by_popularity(self):
        sc = Scenario.from_zipf(10, 2.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=20_000, seed=24, tail_tol=1e-2)
        total, strata = simulate_total_aligned(sc, cfg, return_strata=True)
        assert sum(e.trials for e in strata.values()) == cfg.trials
        mix = sum(e.mean * e.trials for e in strata.values()) / cfg.trials
        assert total.mean == pytest.approx(mix, rel=1e-12)

    def test_total_reproducible(self):
        sc = Scenario.from_zipf(7, 1.0, 5.0, 3.0, 0.1)
        cfg = TrialConfig(trials=5000, seed=25, tail_tol=1e-2)
        assert simulate_total_baseline(sc, cfg) == simulate_total_baseline(sc, cfg)

    @pytest.mark.parametrize("n_files", [1, 5])
    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_joint_halves_equal_the_single_runs(self, n_files, mode, monkeypatch):
        # At N = 1 the aligned model needs no points, the baseline does.  The
        # bits hold on signal disks of radius 2 too, which are empty for most
        # trials at N = 5: complex mode's fades follow the shared geometry.
        sc = Scenario.from_zipf(n_files, 1.0, 1.0, 4.0, 0.1)
        cfg = TrialConfig(trials=6000, seed=39, tail_tol=1e-2)
        self._check_joint_halves(sc, cfg, mode)
        default_geometry = simulate._sir_geometry

        def small_signal_disks(scenario, cfg, files, regions=(None, None)):
            return default_geometry(scenario, cfg, files, (DiskRegion(2.0), regions[1]))

        monkeypatch.setattr(simulate, "_sir_geometry", small_signal_disks)
        self._check_joint_halves(sc, cfg, mode)

    @staticmethod
    def _check_joint_halves(sc, cfg, mode):
        joint, strata = simulate_totals(sc, cfg, mode=mode, return_strata=True)
        aligned, strata_a = simulate_total_aligned(sc, cfg, mode=mode, return_strata=True)
        baseline, strata_b = simulate_total_baseline(sc, cfg, return_strata=True)
        assert (joint.aligned, joint.baseline) == (aligned, baseline)
        assert {k: (t.aligned, t.baseline) for k, t in strata.items()} == {
            k: (strata_a[k], strata_b[k]) for k in strata_a}
        assert joint.gain.mean == aligned.mean / baseline.mean
        assert joint.gain.trials == cfg.trials

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_merged_strata_match_the_conditional_runs(self, mode):
        # Each file's trials are drawn in blocks of mixed requests, spread
        # over the chunks of the total and merge into one record: against the
        # conditional runs of the same file, on another seed, within 4
        # combined stderr.  File 0 holds about a third of the trials, file 4
        # about 7%.
        sc = Scenario.from_zipf(10, 1.0, 5.0, 4.0, 0.1)
        _, strata = simulate_totals(sc, TrialConfig(trials=60_000, seed=54, tail_tol=1e-2),
                                    mode=mode, return_strata=True)
        cfg = TrialConfig(trials=40_000, seed=55, tail_tol=1e-2)
        for k in (0, 4):
            for merged, alone in ((strata[k].aligned, simulate_sir_aligned(sc, k, cfg, mode)),
                                  (strata[k].baseline, simulate_sir_baseline(sc, k, cfg))):
                assert abs(merged.mean - alone.mean) < 4.0 * math.hypot(merged.stderr,
                                                                        alone.stderr)

    def test_file_records_pool_to_one_pass_moments(self):
        # Per-file records of three chunks, pooled in order, against the
        # one-pass moments of each file's values; a file absent from a chunk
        # adds nothing, and one absent from all has no record.
        rng = np.random.default_rng(56)
        reqs = [np.repeat([0, 1], [30, 5]), np.repeat([1, 2, 4], [1, 20, 9]), np.full(12, 4)]
        values = [rng.random((2, r.size)) for r in reqs]
        pooled = functools.reduce(operator.add, (_FileRecords.of(r, v)
                                                 for r, v in zip(reqs, values)))
        assert sorted(pooled) == [0, 1, 2, 4]
        req, vals = np.concatenate(reqs), np.concatenate(values, axis=1)
        for k, record in pooled.items():
            want = CoMoments.of(*vals[:, req == k])
            for got, ref in ((record.x, want.x), (record.y, want.y)):
                assert got.count == ref.count
                assert got.mean == pytest.approx(ref.mean, rel=1e-13)
                assert got.m2 == pytest.approx(ref.m2, rel=1e-12, abs=1e-15)
            assert record.cross == pytest.approx(want.cross, rel=1e-12, abs=1e-15)

    def test_gain_stderr_is_calibrated(self):
        # Spread of the gain over 40 seeds against its reported (delta-method,
        # covariance included) stderr: (m - 1) * var / mean(stderr^2) is about
        # chi-square with m - 1 degrees of freedom.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1)
        runs = [simulate_totals(sc, TrialConfig(trials=2000, seed=seed, tail_tol=1e-2)).gain
                for seed in range(1000, 1040)]
        gains = np.array([g.mean for g in runs])
        stat = gains.var(ddof=1) * (len(runs) - 1) / np.mean([g.stderr**2 for g in runs])
        dof = len(runs) - 1
        assert stats.chi2.ppf(0.001, dof) < stat < stats.chi2.ppf(0.999, dof)

    def test_gain_reaches_stated_levels_at_high_skew(self):
        # Headline comparison at skew 3 with 50 files: the aligned network
        # delivers about 3x (alpha=4) the baseline probability.
        sc = Scenario.from_zipf(50, 3.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=20_000, seed=26, tail_tol=1e-2)
        gain = (simulate_total_aligned(sc, cfg).mean
                / simulate_total_baseline(sc, cfg).mean)
        assert 3.0 * 0.75 <= gain <= 3.0 * 1.25


#: Few, reproducible examples; 9000 trials span two chunks of the grid.
_DRIVER_PROPERTY = settings(max_examples=4, deadline=None, derandomize=True, database=None)
_DRIVER_TRIALS = 9000


class TestSharedDriverProperties:
    @_DRIVER_PROPERTY
    @given(xs=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=6),
           alpha=st.floats(3.0, 5.0), seed=st.integers(0, 2**16))
    def test_ratio_ccdf_does_not_increase(self, xs, alpha, seed):
        xs = sorted(xs)
        cfg = TrialConfig(trials=_DRIVER_TRIALS, seed=seed, tail_tol=1e-2)
        means = [e.mean for e in ratio_ccdf_estimates(xs, RatioSpec(0.01, 0.02, alpha), cfg)]
        assert all(a >= b for a, b in zip(means, means[1:]))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
           cuts=st.lists(st.integers(1, 39), max_size=4))
    def test_pooled_moments_match_one_pass(self, values, cuts):
        # Folding per-chunk moments in order gives the one-pass estimate.
        bounds = sorted({c for c in cuts if c < len(values)})
        parts = np.split(np.array(values), bounds)

        def fold(records):
            return functools.reduce(operator.add, records)

        folded = fold(Moments.of(p) for p in parts)
        got = folded.estimate(seed=1)
        want = Moments.of(np.array(values)).estimate(seed=1)
        assert got.trials == want.trials
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9, abs=1e-15)
        # Paired with y = sqrt(x): the marginals keep the bits of the fold above.
        co = fold(CoMoments.of(p, np.sqrt(p)) for p in parts)
        assert co.x == folded and co.y == fold(Moments.of(np.sqrt(p)) for p in parts)
        x, y = np.array(values), np.sqrt(values)
        assert co.cross == pytest.approx(np.sum((x - x.mean()) * (y - y.mean())),
                                         rel=1e-9, abs=1e-12)

    def test_chunk_start_inverts_the_chunk_keying(self):
        # Each chunk learns its first trial from its substream's key; the
        # one-item lists concatenate in chunk order, on either thread.
        def chunk(rng, n):
            return ([(mc.chunk_start(rng, 1), n)],)

        (got,) = mc.run_counting_chunks(2 * mc.CHUNK_TRIALS + 5, 9, chunk, partitions=2,
                                        stream_offset=1)
        assert got == [(0, 4096), (4096, 4096), (8192, 5)]
        assert mc.chunk_start(substream(9, 3), 0) == 3 * mc.CHUNK_TRIALS

    @_DRIVER_PROPERTY
    @given(k=st.integers(0, 4), seed=st.integers(0, 2**16))
    def test_partitions_do_not_change_estimates(self, k, seed):
        sc = Scenario.from_zipf(5, 1.0, 1.0, 4.0, 0.1)
        spec = RatioSpec(0.01, 0.02, 3.0)

        def run(partitions):
            cfg = TrialConfig(trials=_DRIVER_TRIALS, seed=seed, tail_tol=1e-2,
                              partitions=partitions)
            return (ratio_ccdf_estimates([0.5, 2.0], spec, cfg),
                    simulate_sir_aligned(sc, k, cfg),
                    simulate_sir_baseline(sc, k, cfg),
                    simulate_total_aligned(sc, cfg, return_strata=True),
                    simulate_total_aligned(sc, cfg, mode="complex", return_strata=True),
                    simulate_totals(sc, cfg, return_strata=True),
                    simulate_totals(sc, cfg, mode="complex", return_strata=True))

        ref = run(1)
        assert run(2) == ref
        assert run(3) == ref

    def test_single_chunk_runs_start_no_pool(self, monkeypatch):
        # A total of at most CHUNK_TRIALS trials is one chunk, whatever the
        # file count, so a run at partitions=2 stays on the calling thread
        # with the same bits.
        sc = Scenario.from_zipf(500, 0.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=mc.CHUNK_TRIALS, seed=41, tail_tol=1e-2)
        ref = simulate_totals(sc, cfg, return_strata=True)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-chunk run started a thread pool")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        assert simulate_totals(sc, replace(cfg, partitions=2), return_strata=True) == ref
