"""Delivery probabilities: expectation forms, series, bounds, baseline, gain."""

import math
import mmap
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from snratio import (
    FadingBatch,
    PopularityProfile,
    Scenario,
    alignment_gain_approx,
    alpha4_bounds,
    baseline_delivery_prob,
    conditional_delivery_prob,
    conditional_delivery_prob_alpha4,
    conditional_delivery_prob_series,
    delivery_lower_bound,
    delivery_upper_bound,
    high_sir_approx,
    inverse_g_moments,
    mu_integral,
    total_delivery_prob,
)
from snratio import delivery
from snratio.errors import (
    ContractError,
    DegenerateScenarioError,
    MomentReliabilityWarning,
    ParameterDomainError,
    SeriesDivergenceError,
)
from snratio.experiments import zipf_remainder_profile
from snratio.mc import Moments, substream


def scenario_with_top(a_top, n_files, theta, alpha, lam=0.1):
    return Scenario(zipf_remainder_profile(a_top, n_files), alpha, theta, lam)


def _arctan_tail(ratio, alpha):
    """P(S1 / S2 > 1 / ratio) in its arctan form, in the precision of ``ratio``.

    (alpha / 2 pi) * arctan(tan(pi / alpha) * (1 - 2 / (1 + ratio))) + 1/2,
    the per-file integrand the sampled forms once evaluated, kept as an
    oracle.  Its final sum cancels where the tail is small, so its error is
    about one unit of roundoff absolute, not relative.
    """
    ratio = np.asarray(ratio)
    one = ratio.dtype.type(1) if ratio.dtype.kind == "f" else 1.0
    pi, alpha = 4 * np.arctan(one), one * alpha
    arg = (1 - 2 / (1 + ratio)) * np.tan(pi / alpha)
    return np.arctan(arg) * (alpha / (2 * pi)) + one / 2


class TestGSample:
    """Samples of g_k, the competing files' fading-weighted popularity, from one pass."""

    def test_forced_fading_single_term(self):
        # With two files g_0 is the other file's term alone, whatever h_0 is.
        p = PopularityProfile([0.5, 0.5])
        batch = FadingBatch(2000, 21)
        h = substream(batch.seed, 0).exponential(size=(batch.sample_count, 2))
        g = delivery._competing_g(p, 4.0, batch, range(2))
        np.testing.assert_allclose(g, (0.5 * np.sqrt(h[:, ::-1])).T, rtol=1e-12, atol=1e-15)

    def test_mean_matches_closed_moment(self):
        # E[g_k] = (1 - a_k) * Gamma(1 + 2/alpha).
        p = zipf_remainder_profile(0.5, 10)
        draws = delivery._competing_g(p, 4.0, FadingBatch(100_000, 21), range(1))[0]
        want = 0.5 * math.gamma(1.5)
        assert want == pytest.approx(0.44311, abs=5e-6)
        assert abs(draws.mean() - want) < 3.0 * draws.std(ddof=1) / math.sqrt(draws.size)

    def test_always_positive(self):
        p = zipf_remainder_profile(0.9, 5)
        assert np.all(delivery._competing_g(p, 3.0, FadingBatch(200, 2), range(5)) > 0.0)

    def test_single_file_degenerates(self):
        with pytest.raises(DegenerateScenarioError):
            inverse_g_moments(PopularityProfile([1.0]), 0, 4.0, FadingBatch(10, 0), 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFileWithoutCompetitors:
    """A profile with all its popularity on one file: that file has no
    competitor, g_k = 0, and is delivered surely by every sampled form."""

    BATCH = FadingBatch(2000, 3)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    @pytest.mark.parametrize("weights, k", [([1.0, 0.0], 0), ([0.0, 0.0, 1.0, 0.0], 2)])
    def test_sampled_forms_give_exactly_one(self, alpha, weights, k):
        sc = Scenario(PopularityProfile(weights), alpha, 5.0, 0.1)
        got = [conditional_delivery_prob(k, sc, self.BATCH),
               conditional_delivery_prob_series(k, sc, 60, self.BATCH)]
        methods = ["expectation", "series"] + (["alpha4"] if alpha == 4.0 else [])
        got += [total_delivery_prob(sc, method, self.BATCH) for method in methods]
        if alpha == 4.0:
            got.append(conditional_delivery_prob_alpha4(k, sc, self.BATCH))
        for est in got:
            assert (est.mean, est.stderr) == (1.0, 0.0)

    def test_inverse_moments_degenerate(self):
        profile = PopularityProfile([0.0, 1.0, 0.0])
        with pytest.raises(DegenerateScenarioError, match="popularity 0"):
            inverse_g_moments(profile, 1, 4.0, self.BATCH, 3)
        # A zero-popularity file still has a competitor.
        means, _ = inverse_g_moments(profile, 0, 4.0, self.BATCH, 3)
        assert np.all(np.isfinite(means))


class TestExpectationForm:
    def test_near_total_popularity_approaches_one(self):
        sc = scenario_with_top(1.0 - 1e-9, 2, 5.0, 4.0)
        est = conditional_delivery_prob(0, sc, FadingBatch(20_000, 3))
        assert est.mean >= 0.999

    def test_single_file_is_certain(self):
        sc = Scenario(PopularityProfile([1.0]), 4.0, 5.0, 0.1)
        assert conditional_delivery_prob(0, sc, FadingBatch(10, 0)).mean == 1.0

    def test_within_bounds(self):
        batch = FadingBatch(40_000, 5)
        for a_top in (0.1, 0.5, 0.9):
            sc = scenario_with_top(a_top, 8, 5.0, 3.0)
            mid = conditional_delivery_prob(0, sc, batch)
            low = delivery_lower_bound(a_top, 5.0, 3.0, batch)
            up = delivery_upper_bound(a_top, 5.0, 3.0)
            slack = 3.0 * math.hypot(mid.stderr, low.stderr)
            assert low.mean - slack <= mid.mean <= up + 3.0 * mid.stderr

    def test_alpha4_specialization_agrees(self):
        sc = Scenario.from_zipf(50, 3.0, 5.0, 4.0)
        batch = FadingBatch(50_000, 7)
        a = conditional_delivery_prob(0, sc, batch)
        b = conditional_delivery_prob_alpha4(0, sc, batch)
        assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_alpha4_requires_alpha_four(self):
        sc = Scenario.from_zipf(5, 1.0, 5.0, 3.0)
        with pytest.raises(ContractError):
            conditional_delivery_prob_alpha4(0, sc, FadingBatch(10, 0))

    def test_batch_reproducibility(self):
        sc = Scenario.from_zipf(10, 1.0, 5.0, 3.5)
        batch = FadingBatch(5000, 11)
        assert conditional_delivery_prob(0, sc, batch) == conditional_delivery_prob(
            0, sc, batch)


class TestSampledKernel:
    """The blocked pass of the expectation and alpha4 forms against the per-file integrand.

    The oracle evaluates :func:`_arctan_tail` file by file on the batch's
    own draws, in long double: W_k = a_k * h_k ** (2/alpha), g_k = sum_j
    W_j - W_k and the ratio (h_k / theta_k) ** (2/alpha) * a_k / g_k.
    """

    BATCH = FadingBatch(2000, 5)

    @staticmethod
    def _oracle(sc, batch):
        """Per-file conditional probabilities and the popularity, in long double."""
        ld = np.longdouble
        h = substream(batch.seed, 0).exponential(size=(batch.sample_count, sc.n_files))
        h = h.astype(ld)
        a, d = sc.profile.weights.astype(ld), 2 / ld(sc.alpha)
        w = a * h**d
        g = w.sum(axis=1)[:, None] - w
        ratio = (h / sc.thresholds.astype(ld)) ** d * (a / g)
        return _arctan_tail(ratio, sc.alpha).mean(axis=0), a

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the oracle needs an extended-precision long double")
    @pytest.mark.parametrize("n_files", [2, 80])
    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("theta", [1e-3, 5.0, 1e4])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_matches_per_file_integrand(self, alpha, theta, gamma, n_files):
        sc = Scenario.from_zipf(n_files, gamma, theta, alpha)
        want, a = self._oracle(sc, self.BATCH)
        total = total_delivery_prob(sc, "expectation", self.BATCH).mean
        assert total == pytest.approx(float(a @ want), rel=1e-11)
        # The oracle's own cancellation, about 1e-19 absolute, floors the
        # comparison for tails below 1e-8 (the last file at theta = 1e4).
        for k in (0, n_files - 1):
            got = conditional_delivery_prob(k, sc, self.BATCH).mean
            assert got == pytest.approx(float(want[k]), rel=1e-11, abs=1e-19)
        if alpha == 4.0:
            alpha4 = total_delivery_prob(sc, "alpha4", self.BATCH).mean
            assert alpha4 == pytest.approx(total, rel=1e-12)
            for k in (0, n_files - 1):
                expectation = conditional_delivery_prob(k, sc, self.BATCH).mean
                got = conditional_delivery_prob_alpha4(k, sc, self.BATCH).mean
                assert got == pytest.approx(expectation, rel=1e-12)

    @pytest.mark.parametrize("method", ["expectation", "alpha4"])
    def test_row_blocks_do_not_change_bits(self, method, monkeypatch):
        sc = Scenario.from_zipf(80, 1.0, 5.0, 4.0)
        whole = total_delivery_prob(sc, method, self.BATCH)
        monkeypatch.setattr(delivery, "_KERNEL_BLOCK_CELLS", 777)
        assert total_delivery_prob(sc, method, self.BATCH) == whole

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_zero_popularity_file_contributes_nothing(self, alpha):
        sc = Scenario(PopularityProfile([0.5, 0.5, 0.0]), alpha, 5.0, 0.1)
        batch = FadingBatch(2000, 3)
        forms = {"expectation": conditional_delivery_prob}
        if alpha == 4.0:
            forms["alpha4"] = conditional_delivery_prob_alpha4
        for method, conditional in forms.items():
            zero = conditional(2, sc, batch)
            assert (zero.mean, zero.stderr) == (0.0, 0.0)
            parts = sum(0.5 * conditional(k, sc, batch).mean for k in (0, 1))
            assert total_delivery_prob(sc, method, batch).mean == pytest.approx(parts,
                                                                                rel=1e-12)


class TestSeriesForm:
    def test_one_term_identity(self):
        # With a single retained term the series equals
        # a_k / (theta^{2/alpha} Gamma(1 - 2/alpha)) * E[1/g_k].
        sc = scenario_with_top(0.2, 50, 100.0, 4.0)
        batch = FadingBatch(20_000, 13)
        moments, _ = inverse_g_moments(sc.profile, 0, 4.0, batch, 1)
        want = 0.2 / (100.0**0.5 * math.gamma(0.5)) * moments[0]
        got = conditional_delivery_prob_series(0, sc, 1, batch, tol=1.0)
        assert got.mean == pytest.approx(want, rel=1e-12)

    def test_converged_value_near_expectation_at_high_threshold(self):
        sc = scenario_with_top(0.2, 50, 100.0, 4.0)
        batch = FadingBatch(40_000, 17)
        series = conditional_delivery_prob_series(0, sc, 40, batch)
        expect = conditional_delivery_prob(0, sc, batch)
        assert series.mean == pytest.approx(expect.mean, rel=0.10)

    def test_divergence_for_dominant_popularity(self):
        sc = scenario_with_top(0.9, 2, 1.0, 4.0)
        with pytest.raises(SeriesDivergenceError):
            with pytest.warns():
                conditional_delivery_prob_series(0, sc, 60, FadingBatch(5000, 19))

    def test_moment_warning_names_the_caller(self):
        sc = Scenario.from_zipf(10, 0.0, 5.0, 3.0)
        with pytest.warns(MomentReliabilityWarning) as record:
            conditional_delivery_prob_series(0, sc, 60, FadingBatch(3000, 7))
        assert {w.filename for w in record} == {__file__}

    def test_total_moment_warning_names_the_caller(self):
        sc = Scenario.from_zipf(10, 0.0, 5.0, 3.0)
        with pytest.warns(MomentReliabilityWarning) as record:
            total_delivery_prob(sc, "series", FadingBatch(3000, 7))
        assert {w.filename for w in record} == {__file__}

    def test_total_stderr_is_calibrated(self):
        # Spread of the series total over 40 seeds against its reported
        # stderr: (m - 1) * var / mean(stderr^2) is about chi-square with
        # m - 1 degrees of freedom.  Every term and file reads one fading
        # batch, so the stderr must carry their covariances.
        sc = Scenario.from_zipf(20, 0.5, 5.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MomentReliabilityWarning)
            runs = [total_delivery_prob(sc, "series", FadingBatch(4000, seed))
                    for seed in range(1000, 1040)]
        means = np.array([r.mean for r in runs])
        stat = means.var(ddof=1) * (len(runs) - 1) / np.mean([r.stderr**2 for r in runs])
        dof = len(runs) - 1
        assert stats.chi2.ppf(0.001, dof) < stat < stats.chi2.ppf(0.999, dof)

    @pytest.mark.parametrize("k", [-1, 10])
    def test_file_index_out_of_range(self, k):
        sc = Scenario.from_zipf(10, 0.0, 5.0, 3.0)
        batch = FadingBatch(300, 7)
        with pytest.raises(ParameterDomainError):
            conditional_delivery_prob_series(k, sc, 60, batch)
        with pytest.raises(ParameterDomainError):
            inverse_g_moments(sc.profile, k, 3.0, batch, 4)

    @pytest.mark.parametrize("k", [1.0, 1.5, True, np.float64(1.0)],
                             ids=["1.0", "1.5", "True", "float64"])
    def test_file_index_must_be_an_integer(self, k):
        # A float or bool index is no file, even where it would index one.
        sc = Scenario.from_zipf(10, 0.0, 5.0, 4.0)
        batch = FadingBatch(300, 7)
        for conditional in (conditional_delivery_prob, conditional_delivery_prob_alpha4):
            with pytest.raises(ParameterDomainError, match="file index"):
                conditional(k, sc, batch)
        with pytest.raises(ParameterDomainError, match="file index"):
            conditional_delivery_prob_series(k, sc, 60, batch)
        with pytest.raises(ParameterDomainError, match="file index"):
            inverse_g_moments(sc.profile, k, 4.0, batch, 4)

    @pytest.mark.parametrize("n_files", [5, 1])
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_tolerance_must_be_positive_and_finite(self, tol, n_files):
        # An infinite tolerance would stop every series after its first
        # term; it is rejected at N = 1 too, where the answer is 1.
        sc = Scenario.from_zipf(n_files, 1.0, 5.0, 4.0)
        with pytest.raises(ParameterDomainError, match="tol"):
            conditional_delivery_prob_series(0, sc, 60, FadingBatch(100, 0), tol=tol)

    @pytest.mark.parametrize("m_max", [0, -1, 2.5, 2.0, True])
    def test_moment_count_below_one(self, m_max, monkeypatch):
        # Rejected, as is a count that is not an integer, before the fading
        # pass, which must not run at all.
        def no_pass(*args):
            raise AssertionError("fading pass ran")

        monkeypatch.setattr(delivery, "_competing_g", no_pass)
        sc = Scenario.from_zipf(10, 0.0, 5.0, 3.0)
        with pytest.raises(ParameterDomainError, match="m_max"):
            inverse_g_moments(sc.profile, 2, 3.0, FadingBatch(300, 7), m_max)

    def test_fewer_moments_are_a_prefix(self):
        sc = Scenario.from_zipf(10, 0.5, 5.0, 3.0)
        batch = FadingBatch(3000, 7)
        short = inverse_g_moments(sc.profile, 2, 3.0, batch, 3)
        long = inverse_g_moments(sc.profile, 2, 3.0, batch, 8)
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a, b[:3])


class TestSeriesTotalBlocks:
    """The series total against the file-by-file loop over the conditional form.

    ``_FADING_CHUNK_CELLS`` is shrunk so that 29 files at 1000 samples span
    10 blocks of at most 3 files.
    """

    N = 29
    BATCH = FadingBatch(1000, 11)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", 12_000)

    def _file_by_file(self, sc):
        w = sc.profile.weights
        total = 0.0
        for k in range(sc.n_files):
            total += w[k] * conditional_delivery_prob_series(k, sc, 60, self.BATCH).mean
        return total

    @staticmethod
    def _run(fn):
        """``fn()`` or the divergence it raised, and the warnings it gave."""
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            try:
                return fn(), len(record)
            except SeriesDivergenceError as err:
                return err, len(record)

    def test_total_equals_file_by_file_loop(self, monkeypatch):
        sc = Scenario.from_zipf(self.N, 0.5, 2.0, 3.0)
        est, n_warned = self._run(lambda: total_delivery_prob(sc, "series", self.BATCH))
        mean, n_loop_warned = self._run(lambda: self._file_by_file(sc))
        assert n_warned == n_loop_warned > 0
        assert float(est.mean).hex() == float(mean).hex()
        monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", 4_000_000)
        with pytest.warns(MomentReliabilityWarning):
            default = total_delivery_prob(sc, "series", self.BATCH)
        assert float(default.stderr).hex() == float(est.stderr).hex()
        assert default == est

    def test_divergence_matches_file_by_file_loop(self):
        # File 20, in the seventh block, diverges after earlier files warned.
        thresholds = np.full(self.N, 2.0)
        thresholds[20] = 1e-4
        sc = Scenario(Scenario.from_zipf(self.N, 0.5, 2.0, 3.0).profile, 3.0, thresholds, 0.1)
        err, n_warned = self._run(lambda: total_delivery_prob(sc, "series", self.BATCH))
        loop_err, n_loop_warned = self._run(lambda: self._file_by_file(sc))
        assert isinstance(err, SeriesDivergenceError)
        assert isinstance(loop_err, SeriesDivergenceError)
        assert str(err) == str(loop_err)
        assert err.argument == loop_err.argument
        assert n_warned == n_loop_warned > 0


class TestFadingMemo:
    """The memoized fading draw and weighting change no result, whatever the memo holds."""

    BATCH = FadingBatch(3000, 5)

    @staticmethod
    def _scenario(n_files=8, alpha=4.0, gamma=0.5):
        return Scenario.from_zipf(n_files, gamma, 50.0, alpha)

    @pytest.fixture
    def weighings(self, monkeypatch):
        """Empty both memos; the list grows by one entry per call of the weighting helper."""
        calls = []
        weigh = delivery._weigh

        def counted(h, weights, d, *out):
            calls.append(d)
            return weigh(h, weights, d, *out)

        monkeypatch.setattr(delivery, "_weigh", counted)
        monkeypatch.setattr(delivery, "_weighted_memo", None)
        delivery._memo_exponentials.cache_clear()
        return calls

    def _all_forms(self):
        """Every fading-averaged form on one scenario and batch, as comparable values."""
        sc, b = self._scenario(), self.BATCH
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MomentReliabilityWarning)
            out = [total_delivery_prob(sc, method, b)
                   for method in ("expectation", "alpha4", "series")]
            out += [conditional_delivery_prob(2, sc, b),
                    conditional_delivery_prob_alpha4(2, sc, b),
                    conditional_delivery_prob_series(2, sc, 40, b)]
        means, rses = inverse_g_moments(sc.profile, 2, 4.0, b, 4)
        return out + [means.tolist(), rses.tolist()]

    def test_one_draw_and_one_weighting_serve_every_form(self, weighings):
        self._all_forms()
        assert delivery._memo_exponentials.cache_info().misses == 1
        assert len(weighings) == 1

    @pytest.mark.parametrize("n_files, alpha, gamma, batch", [
        (8, 4.0, 0.5, FadingBatch(3000, 6)),
        (8, 4.0, 0.5, FadingBatch(3001, 5)),
        (9, 4.0, 0.5, FadingBatch(3000, 5)),
        (8, 3.0, 0.5, FadingBatch(3000, 5)),
        (8, 4.0, 1.5, FadingBatch(3000, 5)),
    ], ids=["seed", "size", "n_files", "alpha", "profile"])
    def test_cold_warm_and_refilled_memo_agree(self, weighings, n_files, alpha, gamma, batch):
        cold = self._all_forms()
        assert self._all_forms() == cold
        assert len(weighings) == 1
        total_delivery_prob(self._scenario(n_files, alpha, gamma), "expectation", batch)
        assert len(weighings) == 2
        # Only the path-loss exponent and the profile leave the draws as they were.
        refilled = batch != self.BATCH or n_files != 8
        assert delivery._memo_exponentials.cache_info().misses == 1 + refilled
        assert self._all_forms() == cold
        assert len(weighings) == 3

    def test_streamed_batch_matches_memoized(self, weighings, monkeypatch):
        memoized = self._all_forms()
        monkeypatch.setattr(delivery, "_FADING_MEMO_CELLS", 0)
        monkeypatch.setattr(delivery, "_weighted_memo", None)
        delivery._memo_exponentials.cache_clear()
        assert self._all_forms() == memoized
        assert delivery._memo_exponentials.cache_info().misses == 0
        assert delivery._weighted_memo is None
        # A streamed batch is weighted by each of the seven sampled calls.
        assert len(weighings) == 1 + 7

    def test_weighted_chunks_are_read_only_and_shared(self, weighings):
        sc, batch = self._scenario(), self.BATCH
        (first,) = delivery._fading_chunks(sc.profile, 4.0, batch)
        (again,) = delivery._fading_chunks(sc.profile, 4.0, batch)
        assert all(a is b for a, b in zip(first, again))
        assert len(weighings) == 1
        h = delivery._memo_exponentials(batch.seed, batch.sample_count, 8)
        weighted, totals = first
        assert h.shape == weighted.shape == (batch.sample_count, 8)
        assert totals.shape == (batch.sample_count,)
        for arr in (h, weighted, totals):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        for arr in first:
            base = arr
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base.obj, mmap.mmap)  # a memoryview of the mapping, outside malloc

    def test_memoized_batch_is_one_chunk(self, weighings, monkeypatch):
        sc, batch = self._scenario(), self.BATCH

        def chunks():
            return list(delivery._fading_chunks(sc.profile, 4.0, batch))

        forms = self._all_forms()
        (memo,) = chunks()
        for cells in (8 * 1000, 8 * 700, 8):
            monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", cells)
            (again,) = chunks()
            assert all(x is y for x, y in zip(memo, again))
        assert len(weighings) == 1  # the chunk size is no part of the key
        monkeypatch.setattr(delivery, "_FADING_MEMO_CELLS", 0)
        for rows in (1000, 700):
            monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", 8 * rows)
            # A streamed chunk is valid until the next is drawn into its buffer.
            streamed = [(w.copy(), t.copy())
                        for w, t in delivery._fading_chunks(sc.profile, 4.0, batch)]
            assert len(streamed) == math.ceil(batch.sample_count / rows)
            assert np.vstack([w for w, _ in streamed]).tobytes() == memo[0].tobytes()
            assert np.concatenate([t for _, t in streamed]).tobytes() == memo[1].tobytes()
        assert len(weighings) == 1 + 3 + 5
        # Every form reads the five streamed chunks as it read the one memoized chunk.
        assert self._all_forms() == forms

    @pytest.mark.filterwarnings("ignore::snratio.errors.MomentReliabilityWarning")
    def test_threads_alternating_scenarios_match_serial(self, weighings):
        # Pool threads (as in validate) replace each other's memo entry on every call.
        scenarios = (self._scenario(), self._scenario(alpha=3.0, gamma=1.0))

        def totals(sc):
            return [total_delivery_prob(sc, method, self.BATCH)
                    for method in ("expectation", "series")]

        serial = [totals(sc) for sc in scenarios]

        def alternate(first):
            return [(i % 2, totals(scenarios[i % 2])) for i in range(first, first + 12)]

        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(alternate, (0, 1)))
        assert all(got == serial[i] for run in runs for i, got in run)

    @pytest.fixture
    def mappings(self, weighings, monkeypatch):
        """Empty both memos; the list grows by the cell count of each mapping the memo makes."""
        cells = []
        mapped = delivery._mapped_floats

        def counted(count):
            cells.append(count)
            return mapped(count)

        monkeypatch.setattr(delivery, "_mapped_floats", counted)
        return cells

    @staticmethod
    def _totals(sc, batch):
        return [total_delivery_prob(sc, method, batch) for method in ("expectation", "series")]

    def _same_size_cases(self):
        """Three (scenario, batch) pairs whose weightings all take 27 000 cells.

        A (3000, 8) and a (2700, 9) batch both take 3000 * 8 + 3000 = 2700 * 9 + 2700.
        """
        return [(self._scenario(), self.BATCH),
                (self._scenario(alpha=3.0, gamma=1.0), self.BATCH),
                (self._scenario(n_files=9), FadingBatch(2700, 5))]

    @pytest.mark.filterwarnings("ignore::snratio.errors.MomentReliabilityWarning")
    def test_same_size_scenarios_share_one_mapping(self, mappings):
        cases = self._same_size_cases()
        cold = []
        for sc, batch in cases:
            delivery._weighted_memo = None
            cold.append(self._totals(sc, batch))
        delivery._weighted_memo = None
        mappings.clear()
        for i in (0, 1, 0, 2, 1, 2, 0):
            assert self._totals(*cases[i]) == cold[i]
        assert mappings == [27_000]

    @pytest.mark.filterwarnings("ignore::snratio.errors.MomentReliabilityWarning")
    @pytest.mark.parametrize("where", ["same thread", "pool thread"])
    def test_open_generator_keeps_its_views(self, mappings, where):
        a, b = self._scenario(), self._scenario(alpha=3.0, gamma=1.0)
        serial = self._totals(b, self.BATCH)
        chunks = delivery._fading_chunks(a.profile, 4.0, self.BATCH)
        held = next(chunks)  # A is weighted into B's mapping, which no reader holds
        before = [x.tobytes() for x in held]
        if where == "same thread":
            got = self._totals(b, self.BATCH)
        else:
            with ThreadPoolExecutor(1) as pool:
                got = pool.submit(self._totals, b, self.BATCH).result(timeout=60)
        assert got == serial
        assert [x.tobytes() for x in held] == before
        assert mappings == [27_000, 27_000]  # B went into a mapping of its own
        chunks.close()
        assert delivery._weighted_memo.readers == 0

    @pytest.mark.filterwarnings("ignore::snratio.errors.MomentReliabilityWarning")
    def test_stress_more_threads_than_cores(self, weighings):
        # Three same-size scenarios, four threads and a short switch interval: a
        # reader-count update lost to a race would leave the count off zero, and a
        # reuse under a reader would change a total.
        cases = self._same_size_cases()
        serial = [self._totals(*case) for case in cases]

        def alternate(first):
            return [(i % 3, self._totals(*cases[i % 3])) for i in range(first, first + 9)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(alternate, first) for first in range(4)]
                runs = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(got == serial[i] for run in runs for i, got in run)
        assert delivery._weighted_memo.readers == 0

    def test_batch_of_another_size_maps_afresh(self, mappings):
        cases = [(self._scenario(), self.BATCH),
                 (self._scenario(), FadingBatch(3001, 5)),
                 (self._scenario(n_files=9), self.BATCH),
                 (self._scenario(), self.BATCH)]
        for sc, batch in cases:
            total_delivery_prob(sc, "expectation", batch)
        assert mappings == [27_000, 27_009, 30_000, 27_000]

    @pytest.mark.parametrize("method", ["expectation", "series"])
    def test_streamed_total_holds_one_chunk(self, monkeypatch, method):
        cells = 1 << 20
        monkeypatch.setattr(delivery, "_FADING_MEMO_CELLS", 0)
        monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", cells)
        sc = Scenario.from_zipf(100, 0.5, 5.0, 4.0)
        tracemalloc.start()
        try:
            total_delivery_prob(sc, method, FadingBatch(40_000, 3))  # 32 MB in four chunks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A chunk is 8 MB; drawing each one into a fresh array held two (18-20 MB).
        assert peak < 1.6 * 8 * cells


class TestMomentStats:
    """The mean and rse of an inverse moment, against np.std(ddof=1) bit for bit."""

    @pytest.mark.parametrize("kind", ["uniform", "g^-20"])
    def test_spread_is_np_std(self, kind):
        if kind == "uniform":
            vals = substream(1, 0).random(5001)
        else:
            profile = Scenario.from_zipf(8, 0.5, 5.0, 3.0).profile
            vals = delivery._competing_g(profile, 3.0, FadingBatch(5000, 3), range(1))[0] ** -20.0
        mu, rse = delivery._moment_stats(vals)
        assert mu == float(vals.mean())
        want = float(vals.std(ddof=1)) / (math.sqrt(vals.size) * mu)
        assert rse.hex() == want.hex()

    def test_single_sample_has_zero_spread(self):
        assert delivery._moment_stats(np.array([2.5])) == (2.5, 0.0)


class TestHighSirApprox:
    def test_frozen_value(self):
        got = high_sir_approx(0.2, 100.0, 4.0)
        assert got == pytest.approx(2.0 / math.pi * 0.1 * 0.25, rel=1e-12)
        assert got == pytest.approx(0.015915, abs=1e-6)

    def test_monotonicity(self):
        vals_a = [high_sir_approx(a, 50.0, 3.0) for a in (0.1, 0.3, 0.6, 0.9)]
        assert np.all(np.diff(vals_a) > 0.0)
        vals_t = [high_sir_approx(0.3, t, 3.0) for t in (10.0, 100.0, 1000.0)]
        assert np.all(np.diff(vals_t) < 0.0)

    def test_error_shrinks_as_threshold_grows(self):
        # Many small competitors keep the Jensen floor negligible, so the
        # error is truncation-dominated and falls cleanly with the threshold.
        batch = FadingBatch(400_000, 23)
        errs = []
        for theta in (10.0, 100.0, 1000.0):
            sc = scenario_with_top(0.5, 200, theta, 4.0)
            exact = conditional_delivery_prob(0, sc, batch).mean
            errs.append(abs(high_sir_approx(0.5, theta, 4.0) / exact - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_total_popularity(self):
        with pytest.raises(ContractError):
            high_sir_approx(1.0, 5.0, 4.0)
        with pytest.raises(ContractError):
            high_sir_approx([0.5, 1.0], 5.0, 4.0)

    def test_elementwise_matches_scalar_calls_exactly(self):
        a = np.linspace(0.01, 0.99, 37)[:, None]
        theta = np.geomspace(1e-2, 1e5, 23)
        got = high_sir_approx(a, theta, 3.3)
        want = [[high_sir_approx(float(a_k), float(t), 3.3) for t in theta] for a_k in a[:, 0]]
        assert got.shape == (37, 23)
        np.testing.assert_array_equal(got, want)


class TestBounds:
    def test_upper_frozen_value(self):
        got = delivery_upper_bound(0.5, 5.0, 4.0)
        assert got == pytest.approx(1.0 / (1.0 + math.sqrt(5.0)), rel=1e-12)
        assert got == pytest.approx(0.30902, abs=5e-6)

    def test_upper_limits(self):
        assert delivery_upper_bound(1.0, 100.0, 3.0) == 1.0
        with pytest.raises(ParameterDomainError):
            delivery_upper_bound(0.3, 0.0, 3.0)

    def test_lower_at_total_popularity(self):
        est = delivery_lower_bound(1.0, 5.0, 4.0, FadingBatch(100, 0))
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_lower_below_upper_on_grid(self):
        batch = FadingBatch(20_000, 29)
        for alpha in (3.0, 4.0):
            for theta in (1.0, 5.0, 20.0):
                for a in (0.05, 0.5, 0.95):
                    low = delivery_lower_bound(a, theta, alpha, batch)
                    assert low.mean <= delivery_upper_bound(a, theta, alpha) + 3 * low.stderr

    def test_lower_matches_incomplete_gamma_bound_at_alpha_four(self):
        # At alpha = 4 the fading average collapses to the closed bound.
        est = delivery_lower_bound(0.5, 5.0, 4.0, FadingBatch(400_000, 31))
        want = alpha4_bounds(0.5, 5.0).lower_a
        assert want == pytest.approx(0.2568, abs=1e-3)
        assert est.mean == pytest.approx(want, rel=1e-9)
        assert est.stderr == 0.0

    @pytest.mark.parametrize("form", [
        delivery_upper_bound, baseline_delivery_prob,
        lambda a, t, alpha: delivery_lower_bound(a, t, alpha, FadingBatch(10, 0)),
        lambda a, t, alpha: alpha4_bounds(a, t), alignment_gain_approx])
    @pytest.mark.parametrize("a_k, theta", [
        (0.0, 5.0), (1.5, 5.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.nan),
        ([0.5, 0.0], 5.0), (0.5, [5.0, 0.0])])
    def test_closed_forms_share_one_domain(self, form, a_k, theta):
        with pytest.raises(ParameterDomainError):
            form(a_k, theta, 4.0)

    @pytest.mark.parametrize("form", [
        delivery_upper_bound, baseline_delivery_prob,
        lambda a, t, alpha: delivery_lower_bound(a, t, alpha, FadingBatch(10, 0)),
        lambda a, t, alpha: alpha4_bounds(a, t), alignment_gain_approx,
        lambda a, t, alpha: mu_integral(t, alpha), high_sir_approx])
    @pytest.mark.parametrize("theta", [math.inf, [5.0, math.inf]])
    def test_closed_forms_reject_infinite_threshold(self, form, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError):
                form(0.5, theta, 3.0)

    @pytest.mark.parametrize("form", [
        delivery_upper_bound, baseline_delivery_prob,
        lambda a, t, alpha: delivery_lower_bound(a, t, alpha, FadingBatch(10, 0)),
        alignment_gain_approx, lambda a, t, alpha: mu_integral(t, alpha), high_sir_approx])
    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_closed_forms_reject_nonfinite_alpha(self, form, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError):
                form(0.5, 5.0, alpha)

    def test_closed_forms_are_elementwise(self):
        a = np.array([0.05, 0.3, 1.0, 0.7])
        theta = np.array([1.0, 5.0, 5.0, 0.01])
        for form in (delivery_upper_bound, baseline_delivery_prob, alignment_gain_approx):
            want = [form(float(a_k), float(t), 3.0) for a_k, t in zip(a, theta)]
            np.testing.assert_allclose(form(a, theta, 3.0), want, rtol=1e-14)
        np.testing.assert_allclose(mu_integral(theta, 3.0),
                                   [mu_integral(float(t), 3.0) for t in theta], rtol=1e-14)
        bounds = alpha4_bounds(a, theta)
        for k, (a_k, t) in enumerate(zip(a, theta)):
            np.testing.assert_allclose([b[k] for b in bounds],
                                       alpha4_bounds(float(a_k), float(t)), rtol=1e-14)


def _sampled_lower_bound(a_k, theta, alpha, batch):
    """Monte Carlo reference: the lower bound averaged over sampled fading."""
    d = 2.0 / alpha
    eta = a_k / ((1.0 - a_k) * special.gamma(1.0 + d) * theta**d)
    h = substream(batch.seed, 0).exponential(size=batch.sample_count)
    return Moments.of(_arctan_tail(eta * h**d, alpha)).estimate(batch.seed)


class TestFadedTail:
    """The requested file's fading integrated out by one finite quadrature."""

    @pytest.mark.parametrize("theta", [0.01, 1.0, 5.0, 100.0, 1e4])
    def test_erfcx_at_alpha_four(self, theta):
        a = np.geomspace(1e-9, 0.999, 60)
        eta = a / ((1.0 - a) * math.gamma(1.5) * math.sqrt(theta))
        np.testing.assert_allclose(delivery._faded_tail(eta, 4.0),
                                   alpha4_bounds(a, theta).lower_a, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 6.0])
    def test_against_quadrature_over_fading(self, alpha):
        # The tail turns sharply where y * h^(2/alpha) = 1; beyond h = 50 the
        # exponential weight is below 2e-22, so the breakpoint is capped there.
        for y in np.geomspace(1e-4, 1e4, 17):
            def f(h):
                return _arctan_tail(y * h ** (2.0 / alpha), alpha) * math.exp(-h)

            kink = min(y ** (-alpha / 2.0), 50.0)
            want = sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)[0]
                       for lo, hi in ((0.0, kink), (kink, np.inf)))
            assert delivery._faded_tail(y, alpha) == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("a_k, theta, alpha", [(0.5, 5.0, 4.0), (0.2, 1.0, 3.0),
                                                   (0.05, 20.0, 2.5), (0.9, 5.0, 6.0)])
    def test_within_three_stderr_of_sampled_fading(self, a_k, theta, alpha):
        batch = FadingBatch(400_000, 31)
        sampled = _sampled_lower_bound(a_k, theta, alpha, batch)
        exact = delivery_lower_bound(a_k, theta, alpha, batch).mean
        assert abs(sampled.mean - exact) <= 3.0 * sampled.stderr

    def test_row_blocks_do_not_change_bits(self, monkeypatch):
        y = np.geomspace(1e-3, 1e3, 25)
        whole = delivery._faded_tail(y, 3.0)
        monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", 1000)
        np.testing.assert_array_equal(delivery._faded_tail(y, 3.0), whole)
        assert delivery._faded_tail(y[7], 3.0) == whole[7]

    def test_limits(self):
        assert delivery._faded_tail(0.0, 3.0) == 0.0
        assert delivery._faded_tail(np.inf, 3.0) == pytest.approx(1.0, abs=1e-12)


class TestAlpha4Bounds:
    def test_frozen_triple(self):
        b = alpha4_bounds(0.5, 5.0)
        assert b.upper == pytest.approx(0.3090169944, abs=1e-9)
        assert b.lower_a == pytest.approx(0.2573680847, abs=1e-9)
        assert b.lower_b == pytest.approx(0.1765768792, abs=1e-9)
        assert b.lower_b == pytest.approx(0.17664, abs=1e-3)

    def test_lower_a_against_quadrature_oracle(self):
        # Independent route: (sqrt(zeta)/pi) * int_0^inf e^-x / ((x+zeta) sqrt(x)) dx.
        for a_k, theta in ((0.5, 5.0), (0.2, 2.0), (0.8, 20.0)):
            zeta = math.pi * theta / 4.0 * ((1.0 - a_k) / a_k) ** 2
            val, _ = integrate.quad(
                lambda x: math.exp(-x) / ((x + zeta) * math.sqrt(x)), 0.0, np.inf)
            oracle = math.sqrt(zeta) / math.pi * val
            assert alpha4_bounds(a_k, theta).lower_a == pytest.approx(oracle, abs=1e-3)

    def test_ordering_everywhere(self):
        for theta in (0.5, 2.0, 5.0, 50.0):
            for a in np.linspace(0.02, 1.0, 25):
                b = alpha4_bounds(float(a), theta)
                assert b.lower_b <= b.lower_a + 1e-12 <= b.upper + 1e-12

    def test_endpoint_at_total_popularity(self):
        b = alpha4_bounds(1.0, 5.0)
        assert b == pytest.approx((1.0, 1.0, 1.0))

    @pytest.mark.parametrize("a_k", [1e-300, 1e-160])
    def test_tiny_popularity_does_not_overflow(self, a_k):
        # ((1 - a) / a) ** 2 overflows below a = 7e-155; its square root does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = alpha4_bounds(a_k, 5.0)
        assert all(math.isfinite(v) for v in b)
        assert 0.0 <= b.lower_b <= b.lower_a <= b.upper
        assert b.lower_a == pytest.approx(2.0 * a_k / (math.pi * math.sqrt(5.0)), rel=1e-12)

    def test_erfcx_against_50_digit_values(self):
        # Includes both sides of the switch to the continued fraction at 4.
        x = [0.0, 3.99, np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0), 4.01,
             *np.geomspace(1e-8, 1e8, 161)]
        with mpmath.workdps(50):
            want = [float(mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(mpmath.mpf(v)))
                    for v in x]
        np.testing.assert_allclose([delivery._erfcx(v) for v in x], want, rtol=2e-15, atol=0.0)

    def test_erfcx_on_arrays_is_the_scalar_path(self):
        # Both sides of the switch at 4, where the array path changes method too.
        edge = [0.0, 3.99, np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0), 4.01]
        x = np.concatenate([edge, np.linspace(0.0, 8.0, 97), np.geomspace(1e-8, 1e8, 1897)])
        grid = x.reshape(40, 50)
        got = delivery._erfcx(grid)
        assert got.shape == grid.shape
        assert all(g == delivery._erfcx(float(v)) for g, v in zip(got.ravel(), grid.ravel()))
        assert delivery._erfcx(np.empty((0, 3))).shape == (0, 3)


class TestBaseline:
    def test_mu_frozen_value(self):
        # Closed antiderivative at alpha = 4: sqrt(t) (pi/2 - atan(1/sqrt(t))).
        got = mu_integral(5.0, 4.0)
        want = math.sqrt(5.0) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(5.0)))
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(2.5720, abs=1e-4)

    def test_mu_at_huge_threshold(self):
        # The value is about 5e4 here; an absolute 1e-8 error estimate is out
        # of reach, a relative one is not.
        want = math.sqrt(1e9) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(1e9)))
        assert mu_integral(1e9, 4.0) == pytest.approx(want, rel=1e-12)

    def test_mu_vanishes_with_threshold(self):
        assert mu_integral(1e-9, 3.0) < 1e-8

    @pytest.mark.parametrize("alpha, theta", [(3.04, 3.16), (3.54, 17.8), (6.76, 10.0),
                                              (7.5, 10.0)])
    def test_mu_against_split_quadrature(self, alpha, theta):
        # Points where one adaptive quadrature over [1, inf) missed its error
        # bound.  Splitting at the integrand's knee theta^(2/alpha) and two
        # decades beyond it lets each piece converge.
        knee = theta ** (2.0 / alpha)
        edges = (1.0, knee, 10.0 * knee, 100.0 * knee, np.inf)
        want = sum(integrate.quad(lambda x: 1.0 / (1.0 + x ** (alpha / 2.0) / theta), lo, hi,
                                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(edges, edges[1:]))
        assert mu_integral(theta, alpha) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 8.0])
    def test_mu_at_small_threshold(self, alpha):
        # 1 / (1 + x^h / theta) = theta x^-h - theta^2 x^-2h + ..., h = alpha / 2,
        # integrated term by term over [1, inf).
        theta, h = 1e-12, alpha / 2.0
        want = theta / (h - 1.0) - theta**2 / (2.0 * h - 1.0)
        assert mu_integral(theta, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 8.0])
    def test_mu_at_large_threshold(self, alpha):
        # The integral over [0, inf) is theta^d pi d / sin(pi d), d = 2 / alpha;
        # the one over [0, 1] is 1 - 1 / (theta (h + 1)) + O(theta^-2).
        theta, h, d = 1e12, alpha / 2.0, 2.0 / alpha
        want = theta**d * math.pi * d / math.sin(math.pi * d) - 1.0 + 1.0 / (theta * (h + 1.0))
        assert mu_integral(theta, alpha) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 3.04, 4.0, 6.0, 10.0, 20.0, 50.0])
    def test_mu_against_50_digit_values(self, alpha):
        # mu = theta^d d B_x(1 - d, d) at x = theta / (1 + theta), d = 2 / alpha.
        theta = np.concatenate([np.geomspace(1e-12, 1e12, 49), np.linspace(0.5, 3.0, 11),
                                [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]])
        with mpmath.workdps(50):
            d = 2 / mpmath.mpf(alpha)
            want = [float(t**d * d * mpmath.betainc(1 - d, d, 0, t / (1 + t)))
                    for t in map(mpmath.mpf, theta)]
        np.testing.assert_allclose(mu_integral(theta, alpha), want, rtol=1e-14, atol=0.0)

    def test_import_loads_no_scipy(self):
        # Neither the package nor its experiment runner and command line
        # imports any part of scipy.
        out = _run_isolated("import sys, snratio, snratio.experiments, snratio.cli")
        assert out == "[]"

    def test_closed_forms_and_figures_load_no_scipy(self):
        # Tiny fig3, fig4 and fig5 runs and the ratio tail run every closed
        # form without scipy.
        out = _run_isolated(
            "import sys\n"
            "from snratio import RatioSpec, ratio_ccdf, ratio_ccdf_via_stable, ratio_laplace\n"
            "from snratio.experiments import ExperimentConfig, run_figure3, run_figure4,"
            " run_figure5\n"
            "cfg = ExperimentConfig(n_files=5, gamma_grid=(1.0,), fig4_n_files=(5,),"
            " fig5_n_files=(5,), trials=200, batch_samples=200)\n"
            "run_figure3(cfg); run_figure4(cfg); run_figure5(cfg)\n"
            "spec = RatioSpec(1.0, 0.1, 3.0)\n"
            "ratio_ccdf(0.5, spec); ratio_ccdf_via_stable(0.5, spec); ratio_laplace(1.0, spec)")
        assert out == "[]"

    def test_validate_loads_no_scipy(self):
        # The validation suite, its Levy KS check included, runs on math and
        # numpy alone.
        out = _run_isolated(
            "import sys, snratio.cli\n"
            "from snratio import experiments\n"
            "cfg = experiments.ExperimentConfig(trials=500, batch_samples=500, partitions=2)\n"
            "assert experiments.validate(cfg)[0]")
        assert out == "[]"

    def test_baseline_frozen_value(self):
        got = baseline_delivery_prob(1.0, 5.0, 4.0)
        assert got == pytest.approx(1.0 / (1.0 + 2.5720640), abs=1e-6)
        assert got == pytest.approx(0.279950, abs=1e-5)

    def test_baseline_tends_to_one_at_small_threshold(self):
        assert baseline_delivery_prob(0.5, 1e-9, 4.0) > 1.0 - 1e-4

    def test_below_relaxed_form(self):
        # Dropping the >= 1 scaling factor can only increase the value.
        for a in (0.2, 0.6, 1.0):
            for theta in (1.0, 5.0):
                for alpha in (3.0, 4.0):
                    relaxed = 1.0 / (1.0 + mu_integral(theta, alpha)
                                     + theta ** (2.0 / alpha) * (1.0 / a - 1.0))
                    assert baseline_delivery_prob(a, theta, alpha) <= relaxed + 1e-15


def _run_isolated(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return the scipy modules it loaded."""
    src = str(Path(delivery.__file__).resolve().parents[1])
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    return out.stdout.strip()


class TestAlignmentGain:
    def test_frozen_value_at_total_popularity(self):
        assert alignment_gain_approx(1.0, 5.0, 4.0) == pytest.approx(3.5720640, abs=1e-4)

    def test_tends_to_one_for_unpopular_content(self):
        assert alignment_gain_approx(1e-6, 5.0, 4.0) == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_popularity(self):
        vals = [alignment_gain_approx(a, 5.0, 3.0) for a in np.linspace(0.05, 1.0, 12)]
        assert np.all(np.diff(vals) > 0.0)


class TestTotals:
    def test_single_file_total(self):
        sc = Scenario(PopularityProfile([1.0]), 4.0, 5.0, 0.1)
        assert total_delivery_prob(sc, "expectation", FadingBatch(10, 0)).mean == 1.0

    def test_upper_dominates_lower(self):
        batch = FadingBatch(20_000, 37)
        for gamma in (0.0, 1.5, 3.0):
            sc = Scenario.from_zipf(20, gamma, 5.0, 3.0)
            up = total_delivery_prob(sc, "upper", batch)
            low = total_delivery_prob(sc, "lower", batch)
            assert up.mean >= low.mean - 3.0 * low.stderr

    @pytest.mark.parametrize("method", ["expectation", "alpha4"])
    def test_total_is_weighted_sum_of_conditionals(self, method):
        conditional = (conditional_delivery_prob_alpha4 if method == "alpha4"
                       else conditional_delivery_prob)
        sc = Scenario.from_zipf(5, 1.0, 5.0, 4.0)
        batch = FadingBatch(30_000, 41)
        total = total_delivery_prob(sc, method, batch)
        parts = sum(float(sc.profile.weights[k]) * conditional(k, sc, batch).mean
                    for k in range(5))
        assert total.mean == pytest.approx(parts, rel=1e-12)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_lower_total_is_weighted_sum_of_bounds(self, alpha):
        sc = Scenario.from_zipf(30, 0.8, 5.0, alpha)
        batch = FadingBatch(10, 0)
        w = sc.profile.weights
        total = total_delivery_prob(sc, "lower", batch)
        parts = sum(w[k] * delivery_lower_bound(w[k], 5.0, alpha, batch).mean
                    for k in range(sc.n_files))
        assert total.mean == pytest.approx(parts, rel=1e-12)
        assert (total.stderr, total.trials) == (0.0, 1)

    def test_baseline_integrates_once_per_threshold(self, monkeypatch):
        # One elementwise call covers every file's threshold.
        calls = []

        def counted(theta, alpha):
            calls.append(np.array(theta))
            return mu_integral(theta, alpha)

        monkeypatch.setattr(delivery, "mu_integral", counted)
        profile = Scenario.from_zipf(6, 1.0, 5.0, 3.0).profile
        sc = Scenario(profile, 3.0, [5.0, 2.0, 5.0, 2.0, 5.0, 5.0], 0.1)
        total = total_delivery_prob(sc, "baseline", FadingBatch(10, 0))
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], sc.thresholds)
        want = sum(profile.weights[k] * baseline_delivery_prob(profile.weights[k],
                                                               sc.thresholds[k], 3.0)
                   for k in range(6))
        assert total.mean == pytest.approx(want, rel=1e-12)

    def test_closed_forms_ignore_helper_density(self):
        batch = FadingBatch(10_000, 43)
        for method in ("expectation", "upper", "lower", "baseline"):
            a = total_delivery_prob(Scenario.from_zipf(8, 1.0, 5.0, 3.0, 0.05),
                                    method, batch)
            b = total_delivery_prob(Scenario.from_zipf(8, 1.0, 5.0, 3.0, 5.0),
                                    method, batch)
            assert a == b

    def test_unknown_method_rejected(self):
        sc = Scenario.from_zipf(3, 1.0, 5.0, 4.0)
        with pytest.raises(ParameterDomainError):
            total_delivery_prob(sc, "magic", FadingBatch(10, 0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["alpha", "thresholds", "helper_density"])
    def test_scenario_rejects_nonfinite_inputs(self, field, bad):
        args = {"alpha": 4.0, "thresholds": [5.0, 5.0, 5.0], "helper_density": 0.1}
        args[field] = [5.0, bad, 5.0] if field == "thresholds" else bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomainError, match="finite"):
                Scenario(zipf_remainder_profile(0.5, 3), **args)

    @pytest.mark.parametrize("thresholds", [[[5.0] * 5], [[5.0]], np.full((5, 1), 5.0)])
    def test_scenario_rejects_thresholds_of_two_dimensions(self, thresholds):
        profile = Scenario.from_zipf(5, 1.0, 5.0, 4.0).profile
        with pytest.raises(ParameterDomainError, match="one-dimensional"):
            Scenario(profile, 4.0, thresholds, 0.1)

    @pytest.mark.parametrize("call, error", [
        (lambda sc3, sc4, b: total_delivery_prob(sc3, "alpha4", b), ContractError),
        (lambda sc3, sc4, b: conditional_delivery_prob(7, sc4, b), ParameterDomainError),
        (lambda sc3, sc4, b: conditional_delivery_prob_alpha4(7, sc4, b), ParameterDomainError),
        (lambda sc3, sc4, b: conditional_delivery_prob_series(7, sc4, 60, b),
         ParameterDomainError),
    ], ids=["total_alpha4_at_alpha3", "expectation_k7", "alpha4_k7", "series_k7"])
    def test_single_file_shortcut_keeps_its_checks(self, call, error):
        # At N = 1 the answer is 1 by convention, but only for a valid call:
        # the alpha contract and the file index are checked as at N = 2.
        sc3 = Scenario(PopularityProfile([1.0]), 3.0, 5.0, 0.1)
        sc4 = Scenario(PopularityProfile([1.0]), 4.0, 5.0, 0.1)
        with pytest.raises(error):
            call(sc3, sc4, FadingBatch(10, 0))
