"""Stable-law parametrizations: characteristic functions, conversion, sign law."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from snratio import StableParams, char_fn, convert, unit_scale, zero_crossing_prob
from snratio.errors import ContractError, ParameterDomainError


def valid_params(form="A", delta=0.5, beta=0.0, gamma=0.0, mu=1.0):
    return StableParams(form, delta, beta, gamma, mu)


class TestParamsValidation:
    @pytest.mark.parametrize("field,value", [
        ("delta", 0.0), ("delta", -0.3), ("delta", 2.5),
        ("delta", 1.0), ("delta", 1.5), ("delta", 2.0),
        ("beta", 1.2), ("beta", -1.0001),
        ("mu", 0.0), ("mu", -1.0),
        ("gamma", float("nan")),
    ])
    def test_rejects_out_of_domain(self, field, value):
        kwargs = dict(form="A", delta=0.5, beta=0.0, gamma=0.0, mu=1.0)
        kwargs[field] = value
        with pytest.raises(ParameterDomainError):
            StableParams(**kwargs)

    def test_rejects_unknown_form(self):
        with pytest.raises(ParameterDomainError):
            StableParams("C", 0.5, 0.0, 0.0, 1.0)


class TestCharFn:
    @pytest.mark.parametrize("form", ["A", "B"])
    @pytest.mark.parametrize("delta", [0.4])
    def test_origin_value_is_one(self, form, delta):
        p = StableParams(form, delta, 0.3, 0.7, 2.0)
        assert char_fn(p, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_symmetric_form_b_frozen_value(self):
        # beta = 0 kills the skew factor: CF(t) = exp(-|t|^delta).
        p = valid_params("B", delta=2.0 / 3.0)
        want = math.exp(-2.0 ** (2.0 / 3.0))
        got = char_fn(p, -2.0)
        assert got.imag == pytest.approx(0.0, abs=1e-15)
        assert got.real == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.2044, abs=1e-4)

    def test_one_sided_form_a_frozen_value(self):
        p = StableParams("A", 0.5, 1.0, 0.0, 1.0)
        assert char_fn(p, 1.0) == pytest.approx(cmath.exp(-1.0 + 1.0j), rel=1e-12)

    def test_magnitude_against_symmetric_stable_samples(self):
        # Independent oracle: empirical CF of scipy's symmetric stable draws.
        p = valid_params("B", delta=2.0 / 3.0)
        x = stats.levy_stable(alpha=2.0 / 3.0, beta=0.0).rvs(
            size=200_000, random_state=np.random.default_rng(42))
        for t in (0.3, 1.0, -2.0):
            emp = np.exp(1j * t * x).mean()
            assert abs(emp - char_fn(p, t)) < 0.012

    def test_against_one_sided_stable_samples(self):
        # S_A(1/2, 1, 0, 1) is the standard one-sided law with unit scale.
        p = StableParams("A", 0.5, 1.0, 0.0, 1.0)
        x = stats.levy(scale=1.0).rvs(size=200_000,
                                      random_state=np.random.default_rng(7))
        for t in (0.5, 1.0, -1.5):
            emp = np.exp(1j * t * x).mean()
            assert abs(emp - char_fn(p, t)) < 0.012

    @pytest.mark.parametrize("delta,beta,gamma,mu", [(0.7, 0.6, 0.3, 1.5),
                                                     (0.35, -0.4, -0.5, 0.8)])
    def test_skewed_form_b_against_chambers_mallows_stuck_samples(self, delta, beta, gamma, mu):
        # Independent oracle for beta != 0 and delta != 1/2: Form-B unit draws
        # by Chambers, Mallows & Stuck (JASA 71, 1976), with V uniform on
        # (-pi/2, pi/2) and W ~ Exp(1); then X = mu * gamma + mu**(1/delta) * Z.
        rng = np.random.default_rng(11)
        v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, 200_000)
        w = rng.exponential(size=v.size)
        a = delta * (v + math.pi * beta / 2.0)
        z = (np.sin(a) / np.cos(v) ** (1.0 / delta)
             * (np.cos(v - a) / w) ** ((1.0 - delta) / delta))
        x = mu * gamma + mu ** (1.0 / delta) * z
        p = StableParams("B", delta, beta, gamma, mu)
        for t in (0.3, 1.0, -2.0):
            emp = np.exp(1j * t * x).mean()
            assert abs(emp - char_fn(p, t)) < 0.01
        neg = (z < 0.0).mean()
        assert abs(neg - zero_crossing_prob(replace(p, gamma=0.0, mu=1.0))) < 4.0 * math.sqrt(
            neg * (1.0 - neg) / z.size)

    @given(
        form=st.sampled_from(["A", "B"]),
        delta=st.floats(0.05, 1.0, exclude_max=True),
        beta=st.floats(-1.0, 1.0),
        gamma=st.floats(-5.0, 5.0),
        mu=st.floats(0.01, 50.0),
        t=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_modulus_bounded_and_conjugate_symmetric(self, form, delta, beta,
                                                     gamma, mu, t):
        p = StableParams(form, delta, beta, gamma, mu)
        value = char_fn(p, t)
        assert abs(value) <= 1.0 + 1e-12
        assert char_fn(p, -t) == pytest.approx(value.conjugate(), rel=1e-9, abs=1e-12)

    def test_accepts_arrays(self):
        p = valid_params("B", delta=0.5, beta=0.4)
        ts = np.array([-1.0, 0.0, 2.5])
        vec = char_fn(p, ts)
        assert vec.shape == (3,)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(char_fn(p, float(t)), rel=1e-14)


class TestConvert:
    def test_identity_when_target_equals_source(self):
        p = valid_params("B", delta=0.7, beta=0.2)
        assert convert(p, "B") is p

    def test_symmetric_law_converts_trivially(self):
        p = StableParams("B", 0.5, 0.0, 0.0, 3.0)
        q = convert(p, "A")
        assert (q.beta, q.gamma, q.mu) == (0.0, 0.0, 3.0)

    def test_one_sided_frozen_conversion(self):
        # K(1/2) = 1/2: beta_A = cot(pi/4) * tan(pi/4) = 1, mu_A = cos(pi/4).
        q = convert(StableParams("B", 0.5, 1.0, 0.0, 1.0), "A")
        assert q.beta == pytest.approx(1.0, rel=1e-12)
        assert q.mu == pytest.approx(math.cos(math.pi / 4.0), rel=1e-12)
        assert q.mu == pytest.approx(0.70711, abs=5e-6)

    @given(
        delta=st.floats(0.05, 0.999),
        beta=st.floats(-1.0, 1.0),
        gamma=st.floats(-10.0, 10.0),
        mu=st.floats(0.01, 100.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_round_trip_reproduces_fields(self, delta, beta, gamma, mu):
        p = StableParams("A", delta, beta, gamma, mu)
        q = convert(convert(p, "B"), "A")
        assert q.delta == p.delta
        assert q.beta == pytest.approx(p.beta, rel=1e-12, abs=1e-12)
        assert q.gamma == pytest.approx(p.gamma, rel=1e-12, abs=1e-12)
        assert q.mu == pytest.approx(p.mu, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.4, 2.0 / 3.0, 0.95])
    @pytest.mark.parametrize("beta", [-1.0, -0.3, 0.0, 0.8, 1.0])
    def test_forms_share_a_characteristic_function(self, delta, beta):
        p = StableParams("B", delta, beta, 0.6, 1.7)
        q = convert(p, "A")
        for t in np.linspace(-6.0, 6.0, 25):
            assert abs(char_fn(p, float(t)) - char_fn(q, float(t))) < 1e-10


class TestUnitScale:
    def test_scale_factor_and_law(self):
        p = StableParams("B", 0.5, 0.6, 0.0, 4.0)
        normalized, scale = unit_scale(p)
        assert normalized.mu == 1.0
        assert scale == pytest.approx(4.0 ** 2.0)  # mu ** (1/delta)
        # X ~ scale * X_normalized: CF_X(t) = CF_norm(scale * t).
        for t in (0.03, 0.1, -0.2):
            assert char_fn(p, t) == pytest.approx(
                char_fn(normalized, scale * t), rel=1e-12)

    def test_requires_form_b_and_zero_location(self):
        with pytest.raises(ContractError):
            unit_scale(StableParams("A", 0.5, 0.0, 0.0, 1.0))
        with pytest.raises(ContractError):
            unit_scale(StableParams("B", 0.5, 0.0, 1.0, 1.0))


class TestZeroCrossing:
    def test_symmetric_law_is_half(self):
        assert zero_crossing_prob(valid_params("B", 0.5, 0.0)) == 0.5

    def test_fully_skewed_positive_law_never_negative(self):
        assert zero_crossing_prob(valid_params("B", 2.0 / 3.0, 1.0)) == 0.0

    def test_fully_skewed_negative_law_always_negative(self):
        assert zero_crossing_prob(valid_params("B", 2.0 / 3.0, -1.0)) == 1.0

    def test_affine_decreasing_in_beta(self):
        betas = np.linspace(-1.0, 1.0, 9)
        vals = [zero_crossing_prob(valid_params("B", 0.6, float(b))) for b in betas]
        diffs = np.diff(vals)
        assert np.all(diffs < 0.0)
        assert np.allclose(diffs, diffs[0], rtol=1e-12)

    def test_contract_and_unsupported_cases(self):
        with pytest.raises(ContractError):
            zero_crossing_prob(StableParams("A", 0.5, 0.0, 0.0, 1.0))
        with pytest.raises(ContractError):
            zero_crossing_prob(StableParams("B", 0.5, 0.0, 0.0, 2.0))
        with pytest.raises(ContractError):
            zero_crossing_prob(StableParams("B", 0.5, 0.0, 0.5, 1.0))
