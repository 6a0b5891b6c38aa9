"""The Monte Carlo oracle: point sampling, shot noise, and SIR trials."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from snratio.mc import CoMoments, Moments, mean_estimate
from snratio.popularity import decompose_densities
from snratio.simulate import (
    _AlignedModel,
    _coupled_shot_chunk,
    _disk_points,
    _NearestHelperModel,
    _nearest_positions,
    _on_geometry,
    _serving,
    _shot_chunk,
    _Stratum,
    aligned_regions,
    rule_radius,
    tail_mean,
    window_doubling_probe,
)


class TestRegions:
    def test_rule_radius_meets_tail_tolerance(self):
        for density, alpha, tol in ((0.1, 3.0, 1e-4), (0.5, 4.0, 1e-2)):
            r = rule_radius(density, alpha, tol)
            assert tail_mean(density, alpha, r) == pytest.approx(tol, rel=1e-12)

    def test_default_region_never_below_rule(self):
        region = default_region(0.1, 3.0, 1e-4)
        assert region.radius >= rule_radius(0.1, 3.0, 1e-4)
        assert tail_mean(0.1, 3.0, region.radius) <= 1e-4 * (1 + 1e-12)

    def test_coverage_floor_kicks_in_at_low_density(self):
        region = default_region(1e-4, 4.0, 1e-2)
        assert 1e-4 * region.area >= 100.0

    def test_rejects_bad_radius(self):
        with pytest.raises(ParameterDomainError):
            DiskRegion(0.0)


class TestSamplePpp:
    """Poisson points on a disk as the simulator draws them, one count per cell."""

    def test_mean_count(self):
        region = DiskRegion(30.0)
        counts, _, _ = _disk_points(substream(17, 0), 0.1 * region.area, region.radius, 2000)
        want = 0.1 * region.area
        se = math.sqrt(want / 2000)
        assert abs(np.mean(counts) - want) < 3.0 * se

    def test_void_probability(self):
        # lam * area = 0.01: empty windows show up with frequency e^-0.01.
        counts, _, _ = _disk_points(substream(18, 0), 0.01, 1.0, 10_000)
        empty = int((counts == 0).sum())
        want = math.exp(-0.01)
        assert abs(empty / 10_000 - want) < 3.0 * math.sqrt(want * (1 - want) / 10_000)

    def test_points_inside_region_and_deterministic(self):
        region = DiskRegion(7.0)
        mean = 0.5 * region.area
        counts, cell, r = _disk_points(substream(19, 0), mean, region.radius, (40, 3))
        assert r.size == counts.sum() > 0
        assert np.all((r >= 0.0) & (r <= region.radius))
        np.testing.assert_array_equal(np.bincount(cell, minlength=counts.size), counts.ravel())
        again = _disk_points(substream(19, 0), mean, region.radius, (40, 3))
        for a, b in zip((counts, cell, r), again):
            np.testing.assert_array_equal(a, b)


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
        for alpha in (3.0, 4.0):
            base, big = window_doubling_probe(2.0, RatioSpec(0.01, 0.02, alpha), cfg)
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
        # One trial, both windows empty: the sums are the tail means alone
        # (bincount over no points used to give an integer array).
        spec = RatioSpec(0.02, 0.1, 3.0)
        r1, r2 = DiskRegion(3.0), DiskRegion(1.5)
        vals = ratio_samples(spec, TrialConfig(trials=1, seed=0), r1, r2)
        want = tail_mean(0.02, 3.0, r1.radius) / tail_mean(0.1, 3.0, r2.radius)
        assert vals.dtype == float
        assert vals[0] == pytest.approx(want, rel=1e-12)

    def test_coupled_sums_of_an_empty_window_are_the_tail_means(self):
        region = DiskRegion(1.0)
        base, big = _coupled_shot_chunk(1e-9, 3.0, region, substream(0, 0), 4)
        assert base.dtype == big.dtype == float
        assert np.all(base == tail_mean(1e-9, 3.0, region.radius))
        assert np.all(big == tail_mean(1e-9, 3.0, 2.0 * region.radius))

    def test_laplace_estimate_matches_series(self):
        spec = RatioSpec(0.005, 0.0005, 4.0)
        est = ratio_laplace_estimate(1.0, spec, TrialConfig(trials=50_000, seed=12,
                                                            tail_tol=1e-2))
        want = ratio_laplace(1.0, spec)
        assert abs(est.mean - want) < 3.0 * est.stderr


class TestAlignedSir:
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
        # Only the requested file has helpers: every block of other files is
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
        # No file has an interferer in the window; every block of files is
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


def _stratum(sc, k):
    return _Stratum(sc, k, *aligned_regions(sc, k, TrialConfig(trials=1, tail_tol=1e-2)))


def _aligned_model(sc, k, mode="exponential"):
    return _AlignedModel(_stratum(sc, k), mode)


class TestAlignedGeometry:
    @pytest.mark.parametrize("n_files, count_cells", [(5, True), (40, False)])
    def test_interferer_counts_and_trial_labels(self, n_files, count_cells):
        # Marking theorem: per (trial, file) the counts are Poisson with mean
        # lambda_j * area; the requested file has none; labels are uniform.
        # Five files crowd the cells (a count per cell), 40 do not (a label
        # per point).
        sc, k, n = Scenario.from_zipf(n_files, 1.0, 5.0, 4.0, 0.1), 2, 4096
        stratum = _stratum(sc, k)
        assert stratum.count_cells is count_cells
        chunk = stratum.geometry(substream(29, 0), n)
        file, trial = np.divmod(chunk.key, n)
        assert np.array_equal(file, np.repeat(np.arange(n_files), np.diff(chunk.ends)))
        area = aligned_regions(sc, k, TrialConfig(trials=1, tail_tol=1e-2))[1].area
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
        stratum = model.stratum
        chunk = stratum.geometry(substream(30, 0), n)
        p = model.success(None, chunk)
        file, trial = np.divmod(chunk.key, n)
        gains = np.zeros((5, n))
        np.add.at(gains, (file, trial), chunk.r ** -sc.alpha)
        gains += stratum.tau_int[:, None]
        g0 = np.full(n, stratum.tau_sig)
        np.add.at(g0, chunk.sig_trial, chunk.sig_r ** -sc.alpha)
        want = np.prod(1.0 / (1.0 + stratum.theta * gains / g0), axis=0)
        np.testing.assert_allclose(p, want, rtol=1e-12)
        assert np.all((0.0 < p) & (p < 1.0))
        rng = np.random.default_rng(31)
        for t in range(n):
            signal = rng.exponential(size=fades) * g0[t]
            interference = rng.exponential(size=(fades, 5)) @ gains[:, t]
            hit = np.mean(signal > stratum.theta * interference)
            assert abs(hit - p[t]) < 4.0 * math.sqrt(p[t] * (1.0 - p[t]) / fades)

    @pytest.mark.parametrize("mode", ["exponential", "complex"])
    def test_blocks_of_files_do_not_change_values(self, mode, monkeypatch):
        sc = Scenario.from_zipf(7, 1.0, 5.0, 4.0, 0.1)
        model = _aligned_model(sc, 3, mode=mode)
        success = _on_geometry(model.stratum, model.success)
        sir = _on_geometry(model.stratum, model.sir)
        ref = success(substream(32, 0), 50)
        ref_sir = sir(substream(33, 0), 50)
        monkeypatch.setattr("snratio.simulate._BLOCK_CELLS", 120)  # 2 files a block
        np.testing.assert_allclose(success(substream(32, 0), 50), ref, rtol=1e-12)
        np.testing.assert_allclose(sir(substream(33, 0), 50), ref_sir, rtol=1e-12)

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


class TestBaselineSir:
    def test_nearest_selection_is_structural(self):
        trial_idx = np.array([0, 0, 1, 2, 2, 2])
        radii = np.array([3.0, 1.0, 5.0, 0.5, 2.0, 0.25])
        pos = _nearest_positions(trial_idx, radii)
        assert np.array_equal(radii[pos], [1.0, 5.0, 0.25])
        assert np.array_equal(trial_idx[pos], [0, 1, 2])
        # Exactly one serving point per trial: it cannot also interfere.
        assert len(pos) == len(np.unique(trial_idx))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(trials=st.lists(st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 10.0),
                                    max_size=4), min_size=1, max_size=12))
    @example(trials=[[], [2.0], [1.0, 0.5, 0.5], [], [3.0, 3.0]])
    def test_nearest_selection_matches_sort_reference(self, trials):
        # Empty inner lists skip trial ids; the sampled radii make exact ties.
        trial_idx = np.repeat(np.arange(len(trials)), [len(t) for t in trials])
        radii = np.array([r for t in trials for r in t], dtype=float)
        order = np.lexsort((radii, trial_idx))  # stable: the first tied point wins
        want = order[np.unique(trial_idx[order], return_index=True)[1]]
        got = _nearest_positions(trial_idx, radii)
        assert got.dtype == np.intp
        assert np.array_equal(got, want)

    def test_nearest_selection_of_no_points_is_empty(self):
        pos = _nearest_positions(np.array([], dtype=np.intp), np.array([]))
        assert pos.size == 0
        assert pos.dtype == np.intp

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
        # The signal disk holds a point with probability 1/2.  Served within
        # it or beyond it, r_s has the nearest-point law of the requested
        # file's process in the plane: P(r_s <= r) = 1 - exp(-lambda_k pi r^2).
        sc, k, n = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1), 1, 4000
        lam = decompose_densities(sc.profile, sc.helper_density)[k]
        radius = math.sqrt(math.log(2.0) / (math.pi * lam))
        stratum = _Stratum(sc, k, DiskRegion(radius), DiskRegion(5.0))
        chunk = stratum.geometry(substream(42, 0), n)
        _, served, r_s, tails = _serving(stratum, substream(42, 1), chunk)
        assert 0.45 < served.size / n < 0.55
        assert stats.kstest(r_s, lambda r: -np.expm1(-lam * math.pi * r**2)).pvalue > 0.01
        beyond = np.ones(n, dtype=bool)
        beyond[served] = False
        assert np.all(r_s[beyond] > radius) and np.all(r_s[served] <= radius)
        # The requested file's tail is taken beyond the server, wherever it is.
        np.testing.assert_allclose(
            tails[beyond], tail_mean(lam, sc.alpha, r_s[beyond]) + stratum.tau_int.sum(),
            rtol=1e-12)

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
    def _product_form(stratum, chunk, rng):
        """Per-trial product form, trial by trial from the raw geometry.

        A trial without a signal point is served at sqrt(R^2 + E / (pi
        lambda_k)), its E drawn from ``rng`` in trial order, and its own
        file's tail is taken beyond that distance.
        """
        n, alpha, lam = chunk.n, stratum.alpha, stratum.sig_density
        int_trial = chunk.key % n
        empty = np.setdiff1d(np.arange(n), chunk.sig_trial)
        beyond = iter(np.sqrt(stratum.sig_region.radius**2
                              + rng.exponential(size=empty.size) / (math.pi * lam)))
        want = np.empty(n)
        for t in range(n):
            sig = chunk.sig_r[chunk.sig_trial == t]
            if sig.size:
                r_s, tau_sig = sig.min(), stratum.tau_sig
                sig = np.delete(sig, np.argmin(sig))
            else:
                r_s = next(beyond)
                tau_sig = tail_mean(lam, alpha, r_s)
            x = stratum.theta * r_s ** alpha
            others = np.concatenate((sig, chunk.r[int_trial == t]))
            want[t] = (math.exp(-x * (tau_sig + stratum.tau_int.sum()))
                       * np.prod(1.0 / (1.0 + x * others ** -alpha)))
        return want

    @pytest.mark.parametrize("n_files", [1, 5, 40])
    def test_product_form_from_raw_geometry(self, n_files):
        # Five files crowd the cells (a count per cell), 40 do not (a label per point).
        sc, n = Scenario.from_zipf(n_files, 1.0, 1.0, 4.0, 0.1), 300
        self._check_product_form(_stratum(sc, n_files // 2), n)

    @pytest.mark.parametrize("n_files", [1, 5])
    def test_product_form_with_empty_signal_disks(self, n_files):
        # A signal disk of radius 2 is empty for about 28% (N = 1) and 83%
        # (N = 5) of the trials.
        sc, k, n = Scenario.from_zipf(n_files, 1.0, 1.0, 4.0, 0.1), n_files // 2, 300
        stratum = _Stratum(sc, k, DiskRegion(2.0), DiskRegion(_stratum(sc, k).int_radius))
        self._check_product_form(stratum, n)

    def _check_product_form(self, stratum, n):
        chunk = stratum.geometry(substream(35, 0), n)
        p = _NearestHelperModel(stratum).success(substream(35, 1), chunk)
        want = self._product_form(stratum, chunk, substream(35, 1))
        np.testing.assert_allclose(p, want, rtol=1e-12)

    def test_product_form_is_the_fading_average(self):
        # On one chunk's geometry (small windows, so few points), the fraction
        # of exponential fades with h_s g_s > theta * (sum_i h_i g_i + tails).
        sc, fades = Scenario.from_zipf(5, 1.0, 1.0, 4.0, 0.1), 100_000
        stratum = _Stratum(sc, 1, DiskRegion(8.0), DiskRegion(8.0))
        chunk = stratum.geometry(substream(36, 0), 64)
        # Only trials with a signal point on the disk are checked.
        p = _NearestHelperModel(stratum).success(substream(36, 1), chunk)
        tails = stratum.tau_sig + stratum.tau_int.sum()
        int_trial = chunk.key % chunk.n
        rng = np.random.default_rng(37)
        served = np.unique(chunk.sig_trial)[:4]
        assert served.size == 4
        for t in served:
            sig = chunk.sig_r[chunk.sig_trial == t]
            g_s = sig.min() ** -sc.alpha
            g = np.concatenate((np.delete(sig, np.argmin(sig)),
                                chunk.r[int_trial == t])) ** -sc.alpha
            signal = rng.exponential(size=fades) * g_s
            interference = rng.exponential(size=(fades, g.size)) @ g + tails
            hit = np.mean(signal > stratum.theta * interference)
            assert 0.0 < p[t] < 1.0
            assert abs(hit - p[t]) < 4.0 * math.sqrt(p[t] * (1.0 - p[t]) / fades)

    def test_sampled_fades_agree_with_the_product_form(self):
        # On the default signal disk, and on one of radius 2 that is empty for
        # about 83% of the trials, whose servers and tails lie beyond it.
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=20_000, seed=38, tail_tol=1e-2)
        for signal_region in (None, DiskRegion(2.0)):
            hits = sir_samples_baseline(sc, 2, cfg, signal_region) > sc.thresholds[2]
            indicator = mean_estimate(hits, cfg.seed)
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
    def test_joint_halves_equal_the_single_runs(self, n_files, mode):
        # At N = 1 the aligned model needs no points, the baseline does.
        sc = Scenario.from_zipf(n_files, 1.0, 1.0, 4.0, 0.1)
        cfg = TrialConfig(trials=6000, seed=39, tail_tol=1e-2)
        joint, strata = simulate_totals(sc, cfg, mode=mode, return_strata=True)
        aligned, strata_a = simulate_total_aligned(sc, cfg, mode=mode, return_strata=True)
        baseline, strata_b = simulate_total_baseline(sc, cfg, return_strata=True)
        assert (joint.aligned, joint.baseline) == (aligned, baseline)
        assert {k: (t.aligned, t.baseline) for k, t in strata.items()} == {
            k: (strata_a[k], strata_b[k]) for k in strata_a}
        assert joint.gain.mean == aligned.mean / baseline.mean
        assert joint.gain.trials == cfg.trials

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
        folded = sum(Moments.of(p) for p in parts)
        got = folded.estimate(seed=1)
        want = mean_estimate(np.array(values), seed=1)
        assert got.trials == want.trials
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9, abs=1e-15)
        # Paired with y = sqrt(x): the marginals keep the bits of the fold above.
        co = sum(CoMoments.of(p, np.sqrt(p)) for p in parts)
        assert co.x == folded and co.y == sum(Moments.of(np.sqrt(p)) for p in parts)
        x, y = np.array(values), np.sqrt(values)
        assert co.cross == pytest.approx(np.sum((x - x.mean()) * (y - y.mean())),
                                         rel=1e-9, abs=1e-12)

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
        # At N = 500 and gamma = 0 every request stratum is one chunk, so a
        # run at partitions=2 stays on the calling thread with the same bits.
        sc = Scenario.from_zipf(500, 0.0, 5.0, 4.0, 0.1)
        cfg = TrialConfig(trials=20_000, seed=41, tail_tol=1e-2)
        ref = simulate_totals(sc, cfg, return_strata=True)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-chunk run started a thread pool")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        assert simulate_totals(sc, replace(cfg, partitions=2), return_strata=True) == ref
