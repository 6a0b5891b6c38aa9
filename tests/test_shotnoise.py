"""Shot-noise and shot-noise-ratio closed forms against independent oracles."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from snratio import (
    RatioSpec,
    SeriesControl,
    TrialConfig,
    convert,
    diff_char_fn,
    diff_stable_params,
    normalize_diff,
    ratio_ccdf,
    ratio_ccdf_estimates,
    ratio_ccdf_via_stable,
    ratio_laplace,
    reciprocal_gamma,
    shot_noise_pdf,
    shot_noise_samples,
    unit_scale,
)
from snratio.errors import ContractError, ParameterDomainError, SeriesDivergenceError


def levy_pdf(x, density):
    """Closed one-sided stable density of the alpha=4 shot noise (oracle)."""
    c = density**2 * math.pi**3 / 2.0
    return math.sqrt(c / (2.0 * math.pi)) * x ** (-1.5) * math.exp(-c / (2.0 * x))


class TestRatioSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(lambda1=0.0, lambda2=1.0, alpha=4.0),
        dict(lambda1=1.0, lambda2=-2.0, alpha=4.0),
        dict(lambda1=1.0, lambda2=1.0, alpha=2.0),
        dict(lambda1=1.0, lambda2=1.0, alpha=1.5),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterDomainError):
            RatioSpec(**kwargs)

    def test_delta_below_one(self):
        assert RatioSpec(1.0, 1.0, 4.0).delta == 0.5
        assert RatioSpec(1.0, 1.0, 2.001).delta < 1.0


class TestDiffCharFn:
    def test_origin_is_one(self):
        spec = RatioSpec(0.7, 1.3, 3.5)
        assert diff_char_fn(0.0, 2.0, spec) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_single_shot_noise_frozen_value(self):
        # x = 0, alpha = 4, lambda1 = 1/pi: log CF(1) = -sqrt(pi) e^{-j pi/4}.
        spec = RatioSpec(1.0 / math.pi, 1.0, 4.0)
        got = diff_char_fn(1.0, 0.0, spec)
        want = cmath.exp(-math.sqrt(math.pi) * cmath.exp(-1j * math.pi / 4.0))
        assert got == pytest.approx(want, rel=1e-12)
        assert abs(got) == pytest.approx(0.2856, abs=5e-5)
        assert cmath.phase(got) == pytest.approx(1.2533, abs=5e-5)

    def test_conjugate_symmetry(self):
        spec = RatioSpec(0.4, 0.9, 3.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = float(rng.uniform(-20.0, 20.0))
            x = float(rng.uniform(0.0, 10.0))
            assert diff_char_fn(-t, x, spec) == pytest.approx(
                diff_char_fn(t, x, spec).conjugate(), rel=1e-12)

    def test_matches_empirical_cf_of_levy_samples(self):
        # At alpha=4 and density 1/pi the sum is a one-sided stable variable
        # with scale pi/2; its draws give an independent empirical CF.
        spec = RatioSpec(1.0 / math.pi, 1.0, 4.0)
        x = stats.levy(scale=math.pi / 2.0).rvs(
            size=200_000, random_state=np.random.default_rng(11))
        for t in (0.5, 1.0, -2.0):
            emp = np.exp(1j * t * x).mean()
            assert abs(emp - diff_char_fn(t, 0.0, spec)) < 0.012

    def test_rejects_negative_x(self):
        with pytest.raises(ParameterDomainError):
            diff_char_fn(1.0, -0.1, RatioSpec(1.0, 1.0, 4.0))


class TestDiffStableParams:
    def test_equal_weights_are_symmetric(self):
        p = diff_stable_params(1.0, RatioSpec(2.0, 2.0, 3.0))
        assert p.beta == 0.0

    def test_scale_frozen_value(self):
        p = diff_stable_params(1.0, RatioSpec(1.0, 1.0, 4.0))
        want = 2.0 * math.pi * math.gamma(0.5) * math.cos(math.pi / 4.0)
        assert p.mu == pytest.approx(want, rel=1e-12)
        assert p.mu == pytest.approx(7.8748, abs=5e-5)

    def test_x_zero_recovers_pure_shot_noise(self):
        p = diff_stable_params(0.0, RatioSpec(1.7, 0.4, 3.0))
        assert p.beta == 1.0
        assert p.delta == pytest.approx(2.0 / 3.0)
        assert p.mu == pytest.approx(
            1.7 * math.pi * math.gamma(1.0 / 3.0) * math.cos(math.pi / 3.0), rel=1e-12)

    def test_cf_matches_diff_char_fn(self):
        from snratio import char_fn

        spec = RatioSpec(0.8, 1.9, 3.7)
        for x in (0.0, 0.3, 2.0):
            p = diff_stable_params(x, spec)
            for t in (-3.0, 0.7, 11.0):
                assert char_fn(p, t) == pytest.approx(
                    diff_char_fn(t, x, spec), rel=1e-10)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -0.5])
    def test_rejects_nonfinite_or_negative_x(self, x):
        with pytest.raises(ParameterDomainError, match="x must be nonnegative"):
            diff_stable_params(x, RatioSpec(1.0, 1.0, 3.0))


class TestNormalizeDiff:
    def test_symmetric_case_keeps_scale(self):
        p = diff_stable_params(1.0, RatioSpec(1.0, 1.0, 4.0))
        normalized, mu_b = normalize_diff(p)
        assert normalized.beta == 0.0
        assert mu_b == pytest.approx(p.mu, rel=1e-12)

    def test_pure_shot_noise_normalization(self):
        # lambda2 = 0 is outside RatioSpec; build the same law directly.
        from snratio import StableParams

        mu_a = 1.0 * math.pi * math.gamma(0.5) * math.cos(math.pi / 4.0)
        p = StableParams("A", 0.5, 1.0, 0.0, mu_a)
        normalized, mu_b = normalize_diff(p)
        assert normalized.beta == pytest.approx(1.0, rel=1e-12)
        assert mu_b == pytest.approx(mu_a / math.cos(math.pi / 4.0), rel=1e-12)

    def test_agrees_with_generic_conversion_and_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = RatioSpec(10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-2, 1),
                             rng.uniform(2.2, 6.0))
            x = float(10 ** rng.uniform(-2, 2))
            p = diff_stable_params(x, spec)
            direct, mu_b = normalize_diff(p)
            via_convert = convert(p, "B")
            normalized, scale = unit_scale(via_convert)
            assert direct.beta == pytest.approx(via_convert.beta, rel=1e-12, abs=1e-12)
            assert mu_b == pytest.approx(via_convert.mu, rel=1e-12)
            assert scale == pytest.approx(mu_b ** (1.0 / p.delta), rel=1e-12)

    def test_rejects_nonzero_location(self):
        from snratio import StableParams

        with pytest.raises(ContractError):
            normalize_diff(StableParams("A", 0.5, 0.2, 1.0, 1.0))


class TestRatioCcdf:
    def test_limits(self):
        spec = RatioSpec(1.0, 1.0, 3.0)
        assert ratio_ccdf(0.0, spec) == 1.0
        assert ratio_ccdf(1e-12, spec) == pytest.approx(1.0, abs=1e-3)
        assert ratio_ccdf(1e12, spec) == pytest.approx(0.0, abs=1e-3)

    def test_symmetry_point(self):
        assert ratio_ccdf(1.0, RatioSpec(2.5, 2.5, 4.0)) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_values(self):
        # Direct evaluations of the arctan form, cross-checked by Monte Carlo
        # in the acceptance suite.
        assert ratio_ccdf(4.0, RatioSpec(1.0, 1.0, 4.0)) == pytest.approx(
            0.2951672353, abs=1e-9)
        assert ratio_ccdf(8.0, RatioSpec(1.0, 1.0, 3.0)) == pytest.approx(
            0.1158157187, abs=1e-9)

    def test_scale_invariance_is_exact(self):
        spec = RatioSpec(0.1, 0.3, 3.0)
        scaled = RatioSpec(0.4, 1.2, 3.0)  # both densities times 4
        for x in (0.05, 1.0, 7.0):
            assert ratio_ccdf(x, spec) == ratio_ccdf(x, scaled)

    def test_monotone_in_x_and_density_ratio(self):
        xs = np.geomspace(1e-3, 1e3, 60)
        vals = [ratio_ccdf(float(x), RatioSpec(1.0, 0.7, 3.4)) for x in xs]
        assert np.all(np.diff(vals) < 0.0)
        rhos = np.geomspace(0.01, 100.0, 40)
        vals = [ratio_ccdf(2.0, RatioSpec(1.0, float(r), 3.4)) for r in rhos]
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("ccdf", [ratio_ccdf, ratio_ccdf_via_stable])
    def test_nan_is_rejected(self, ccdf):
        with pytest.raises(ParameterDomainError, match="x must be nonnegative"):
            ccdf(math.nan, RatioSpec(1.0, 1.0, 3.0))

    @pytest.mark.parametrize("ccdf", [ratio_ccdf, ratio_ccdf_via_stable])
    @pytest.mark.parametrize("alpha", [2.058, 2.5, 3.0, 4.0, 6.0])
    def test_infinite_x_is_exactly_zero(self, ccdf, alpha):
        # P(ratio > inf) = 0 on both routes, with no arctan rounding left
        # over (the arctan form reads 5.6e-17 at alpha = 2.058).
        assert ccdf(math.inf, RatioSpec(1.0, 0.7, alpha)) == 0.0

    def test_pipeline_equivalence_on_grid(self):
        for alpha in (2.5, 3.0, 4.0, 6.0):
            for rho in (0.1, 1.0, 10.0):
                spec = RatioSpec(1.0, rho, alpha)
                for x in np.geomspace(0.01, 100.0, 17):
                    assert abs(ratio_ccdf(float(x), spec)
                               - ratio_ccdf_via_stable(float(x), spec)) < 1e-10

    def test_monte_carlo_agreement_single_point(self):
        spec = RatioSpec(0.005, 0.005, 4.0)
        (est,) = ratio_ccdf_estimates([4.0], spec,
                                      TrialConfig(trials=20000, seed=2, tail_tol=1e-2))
        want = ratio_ccdf(4.0, spec)
        assert abs(est.mean - want) < 3.0 * est.stderr


class TestRatioLaplace:
    def test_frozen_series_value(self):
        spec = RatioSpec(1.0, 0.1, 4.0)
        got = ratio_laplace(1.0, spec)
        # m=1: 0.1/sqrt(pi); m=2 vanishes at the reciprocal-gamma pole;
        # m=3: -0.2821e-3; the remainder is below 1e-8.
        assert got == pytest.approx(0.056141, abs=1e-5)
        assert got == pytest.approx(0.0561409927, abs=1e-9)

    def test_pole_terms_vanish(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.gamma(0.5), rel=1e-14)

    def test_reciprocal_gamma_matches_scipy(self):
        # The finite range of 1/Gamma on a 0.1 grid, poles included, and a
        # fine grid off the poles near 0.  The series reach 1 - m d down to
        # -199; below about -171 the saturation test covers them.
        x = np.concatenate([np.linspace(-170.5, 171.5, 3421),
                            np.linspace(-6.0, 6.0, 1201) + 1e-3])
        got = np.array([reciprocal_gamma(float(v)) for v in x])
        np.testing.assert_allclose(got, special.rgamma(x), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -180.0, 171.7, 200.0, math.inf, -math.inf,
                                   -175.5, -180.5, -200.5])
    def test_reciprocal_gamma_saturates_like_scipy(self, x):
        # Where Gamma leaves the double range, 1/Gamma is 0 or an infinity
        # with Gamma's sign, as in scipy; nothing raises.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reciprocal_gamma(x)
        assert got == special.rgamma(x)
        assert got == 0.0 or math.isinf(got)

    def test_small_ratio_asymptote(self):
        # Leading term rho * s^{-2/alpha} / Gamma(1 - 2/alpha).
        spec = RatioSpec(1.0, 1e-4, 3.0)
        got = ratio_laplace(2.0, spec)
        lead = 1e-4 * 2.0 ** (-2.0 / 3.0) / math.gamma(1.0 - 2.0 / 3.0)
        assert got == pytest.approx(lead, rel=1e-3)

    def test_large_s_frozen_value(self):
        spec = RatioSpec(1.0, 0.1, 4.0)
        got = ratio_laplace(1e6, spec)
        want = 0.1 / (math.sqrt(math.pi) * 1000.0)
        assert got == pytest.approx(want, rel=1e-8)
        assert got == pytest.approx(5.642e-5, abs=1e-8)

    def test_monotone_decreasing_in_s(self):
        spec = RatioSpec(1.0, 0.05, 4.0)
        ss = np.geomspace(0.5, 1e4, 25)
        vals = [ratio_laplace(float(s), spec) for s in ss]
        assert np.all(np.diff(vals) < 0.0)

    def test_divergence_reports_argument(self):
        spec = RatioSpec(1.0, 5.0, 4.0)
        with pytest.raises(SeriesDivergenceError) as err:
            ratio_laplace(0.1, spec)
        assert err.value.argument == pytest.approx(5.0 * 0.1 ** -0.5)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ParameterDomainError):
            ratio_laplace(0.0, RatioSpec(1.0, 1.0, 4.0))


class TestShotNoisePdf:
    def test_levy_oracle_frozen_value(self):
        got = shot_noise_pdf(100.0, 1.0 / math.pi, 4.0)
        assert got == pytest.approx(levy_pdf(100.0, 1.0 / math.pi), rel=1e-10)
        assert got == pytest.approx(4.961e-4, abs=1e-6)

    def test_levy_oracle_across_range(self):
        for x in np.geomspace(10.0, 1000.0, 13):
            got = shot_noise_pdf(float(x), 1.0 / math.pi, 4.0)
            assert got == pytest.approx(levy_pdf(float(x), 1.0 / math.pi), rel=1e-2)

    def test_nonnegative_on_log_grid(self):
        ctrl = SeriesControl(max_terms=200, tol=1e-12)
        for x in np.geomspace(5.0, 1e5, 40):
            assert shot_noise_pdf(float(x), 0.25, 3.0, ctrl) >= -ctrl.tol

    def test_tail_integral_matches_monte_carlo(self):
        # Quadrature of the series density over [x0, inf) against the
        # empirical tail of simulated shot-noise sums.
        density, alpha, x0 = 1.0 / math.pi, 4.0, 2.0
        val, _ = integrate.quad(lambda x: shot_noise_pdf(x, density, alpha),
                                x0, np.inf, limit=200)
        samples = shot_noise_samples(density, alpha,
                                     TrialConfig(trials=100_000, seed=9, tail_tol=5e-3))
        emp = float((samples > x0).mean())
        assert val == pytest.approx(emp, rel=0.02)

    def test_divergence_for_small_x(self):
        with pytest.raises(SeriesDivergenceError):
            shot_noise_pdf(0.01, 1.0, 3.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["x", "density", "alpha"])
    def test_rejects_nonfinite_inputs(self, field, bad):
        args = {"x": 100.0, "density": 1.0, "alpha": 4.0, field: bad}
        with pytest.raises(ParameterDomainError, match=field):
            shot_noise_pdf(**args)


class TestSeriesControl:
    @pytest.mark.parametrize("max_terms", [2.5, 60.0, True, 0])
    def test_term_count_must_be_a_positive_integer(self, max_terms):
        with pytest.raises(ParameterDomainError, match="max_terms"):
            SeriesControl(max_terms=max_terms)
        SeriesControl(max_terms=np.int64(60))
