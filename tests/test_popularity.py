"""Popularity profiles, density decomposition, and request sampling."""

import numpy as np
import pytest
from scipy import stats

from snratio import (
    PopularityProfile,
    Scenario,
    TrialConfig,
    ZipfSpec,
    decompose_densities,
    zipf,
)
from snratio.errors import ParameterDomainError
from snratio.simulate import _request_counts


class TestProfileValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ParameterDomainError):
            PopularityProfile([0.5, 0.4])

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ParameterDomainError):
            PopularityProfile([1.2, -0.2])
        with pytest.raises(ParameterDomainError):
            PopularityProfile([])

    def test_weights_are_read_only(self):
        p = PopularityProfile([0.25, 0.75])
        with pytest.raises(ValueError):
            p.weights[0] = 1.0


class TestZipf:
    def test_uniform_at_zero_skew(self):
        p = zipf(ZipfSpec(4, 0.0))
        assert np.allclose(p.weights, 0.25, rtol=0, atol=1e-15)

    def test_frozen_harmonic_weights(self):
        p = zipf(ZipfSpec(3, 1.0))
        assert p.weights == pytest.approx([6 / 11, 3 / 11, 2 / 11], rel=1e-12)
        assert p.weights == pytest.approx([0.54545, 0.27273, 0.18182], abs=5e-6)

    def test_degenerate_skew_concentrates_on_first_file(self):
        p = zipf(ZipfSpec(50, 50.0))
        assert p.weights[0] > 1.0 - 1e-10

    def test_strictly_decreasing_for_positive_skew(self):
        p = zipf(ZipfSpec(20, 0.7))
        assert np.all(np.diff(p.weights) < 0.0)

    def test_spec_validation(self):
        with pytest.raises(ParameterDomainError):
            ZipfSpec(0, 1.0)
        with pytest.raises(ParameterDomainError):
            ZipfSpec(5, -0.1)

    @pytest.mark.parametrize("n_files", [2.5, 3.0, True, "3"])
    def test_file_count_must_be_an_integer(self, n_files):
        # np.arange(1, 3.5) has 3 entries, so 2.5 would build a 3-file profile.
        with pytest.raises(ParameterDomainError, match="n_files"):
            ZipfSpec(n_files, 1.0)


class TestDecomposeDensities:
    def test_uniform_split(self):
        dens = decompose_densities(PopularityProfile([0.5, 0.5]), 0.1)
        assert dens == pytest.approx([0.05, 0.05], rel=1e-15)

    def test_frozen_harmonic_split(self):
        dens = decompose_densities(zipf(ZipfSpec(3, 1.0)), 0.11)
        assert dens == pytest.approx([0.06, 0.03, 0.02], rel=1e-12)

    def test_preserves_total_density(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.dirichlet(np.ones(rng.integers(1, 30)))
            w = w / w.sum()
            lam = float(10 ** rng.uniform(-3, 1))
            assert decompose_densities(PopularityProfile(w), lam).sum() == pytest.approx(
                lam, rel=1e-12)

    def test_rejects_nonpositive_density(self):
        with pytest.raises(ParameterDomainError):
            decompose_densities(PopularityProfile([1.0]), 0.0)


class TestSampleRequest:
    """The simulator's split of the trials' requests over the files."""

    @staticmethod
    def _counts(profile, trials, seed):
        return _request_counts(Scenario(profile, 4.0, 5.0, 0.1), TrialConfig(trials, seed))

    def test_single_file_always_index_zero(self):
        assert self._counts(PopularityProfile([1.0]), 20, 0).tolist() == [20]

    def test_frequencies_match_weights(self):
        # Chi-square goodness of fit at the 1% level against the weights.
        p = zipf(ZipfSpec(3, 1.0))
        counts = self._counts(p, 100_000, 123)
        result = stats.chisquare(counts, 100_000 * p.weights)
        assert result.pvalue > 0.01

    def test_identical_seed_identical_sequence(self):
        p = zipf(ZipfSpec(10, 0.8))
        a = self._counts(p, 1000, 55)
        assert a.sum() == 1000
        np.testing.assert_array_equal(a, self._counts(p, 1000, 55))
