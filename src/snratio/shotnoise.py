"""Closed forms for power-law shot noise and the ratio of two shot noises.

A planar Poisson process of density ``lam`` observed from the origin through
the path-loss kernel ``r ** -alpha`` (``alpha > 2``) generates a positive,
heavy-tailed "shot noise" sum.  The difference of two independent such sums,
one scaled by a constant, has a stable law; its sign gives the tail of the
ratio of the two sums.  This module carries that chain end to end:

* characteristic function of the differential process,
* its stable-law parameters and the normalization to unit scale,
* the tail (CCDF) of the ratio in closed trigonometric form and, as a
  cross-check, through the stable-law pipeline,
* a series expansion of the Laplace transform of the ratio,
* a series expansion of the density of a single shot-noise sum.

The two series are asymptotic in nature: terms first shrink and then grow
once the dimensionless argument is too large.  Evaluation stops at the
stated tolerance and raises :class:`~snratio.errors.SeriesDivergenceError`
when terms grow instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, ParameterDomainError, SeriesDivergenceError
from .mc import check_integer
from .stable import FORM_A, FORM_B, StableParams, char_fn, convert, unit_scale, zero_crossing_prob

#: Consecutive growing terms after which a series is declared divergent.
_GROWTH_LIMIT = 3


@dataclass(frozen=True)
class RatioSpec:
    """Densities of the numerator and denominator processes plus the path-loss exponent.

    Every closed form below depends on the densities only through the
    ratio ``lambda2 / lambda1``; the absolute values are retained because
    the Monte Carlo simulator needs them.
    """

    lambda1: float
    lambda2: float
    alpha: float

    def __post_init__(self):
        if not (self.lambda1 > 0.0 and math.isfinite(self.lambda1)):
            raise ParameterDomainError(f"lambda1 must be positive, got {self.lambda1}")
        if not (self.lambda2 > 0.0 and math.isfinite(self.lambda2)):
            raise ParameterDomainError(f"lambda2 must be positive, got {self.lambda2}")
        if not (self.alpha > 2.0 and math.isfinite(self.alpha)):
            raise ParameterDomainError(f"alpha must exceed 2, got {self.alpha}")

    @property
    def delta(self) -> float:
        """Stability index 2 / alpha of the associated stable laws (< 1)."""
        return 2.0 / self.alpha

    @property
    def density_ratio(self) -> float:
        return self.lambda2 / self.lambda1


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the series evaluations."""

    max_terms: int = 200
    tol: float = 1e-12

    def __post_init__(self):
        check_integer("max_terms", self.max_terms, 1)
        if not 0.0 < self.tol < math.inf:
            raise ParameterDomainError(f"tol must be positive and finite, got {self.tol}")


def reciprocal_gamma(x: float) -> float:
    """1 / Gamma(x), returning exactly 0.0 at the poles (nonpositive integers).

    Outside the double range of Gamma the value saturates: 0.0 where Gamma
    overflows (x above about 171.62, and x = +-inf), and an infinity with
    the sign of Gamma where Gamma underflows (x below about -171).
    """
    if x <= 0.0 and (math.isinf(x) or x == math.floor(x)):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def diff_char_fn(t, x: float, spec: RatioSpec):
    """Characteristic function of the differential shot noise S1 - x * S2.

    At ``x = 0`` this reduces to the characteristic function of a single
    shot-noise sum of density ``lambda1``.  Accepts scalar or array ``t``.
    """
    return char_fn(diff_stable_params(x, spec), t)


def diff_stable_params(x: float, spec: RatioSpec) -> StableParams:
    """Form-A stable parameters of the differential shot noise S1 - x * S2."""
    if not 0.0 <= x < math.inf:
        raise ParameterDomainError(f"x must be nonnegative and finite, got {x}")
    d = spec.delta
    w2 = spec.lambda2 * x**d
    total = spec.lambda1 + w2
    beta_a = (spec.lambda1 - w2) / total
    mu_a = total * math.pi * math.gamma(1.0 - d) * math.cos(math.pi / spec.alpha)
    return StableParams(FORM_A, d, beta_a, 0.0, mu_a)


def normalize_diff(params_a: StableParams) -> tuple[StableParams, float]:
    """Convert differential-shot-noise parameters to unit-scale Form B.

    Returns ``(normalized, mu_b)`` where the original variable is distributed
    as ``mu_b ** (alpha / 2)`` (= ``mu_b ** (1 / delta)``) times a variable
    with the normalized law.
    """
    if params_a.form != FORM_A:
        raise ContractError("normalize_diff expects Form-A parameters")
    if params_a.gamma != 0.0:
        raise ContractError("normalize_diff expects zero location")
    params_b = convert(params_a, FORM_B)
    normalized, _ = unit_scale(params_b)
    return normalized, params_b.mu


def ratio_ccdf(x: float, spec: RatioSpec) -> float:
    """Tail probability P(S1 / S2 > x) of the shot-noise ratio.

    Depends on the densities only through ``lambda2 / lambda1``.  Defined as
    1 at ``x = 0`` by continuity, and exactly 0 at ``x = inf``; decreases to
    0 as ``x`` grows.  NaN and negative ``x`` raise
    :class:`ParameterDomainError`.
    """
    if not x >= 0.0:
        raise ParameterDomainError(f"x must be nonnegative, got {x}")
    if x == 0.0 or x == math.inf:
        return 1.0 if x == 0.0 else 0.0
    a = spec.alpha
    u = spec.density_ratio * x ** spec.delta
    return a / (2.0 * math.pi) * math.atan(
        (-1.0 + 2.0 / (1.0 + u)) * math.tan(math.pi / a)
    ) + 0.5


def ratio_ccdf_via_stable(x: float, spec: RatioSpec) -> float:
    """Same tail probability, computed through the stable-law pipeline.

    Evaluates the sign probability of the differential process: the ratio
    exceeds ``x`` exactly when ``S1 - x * S2`` is positive.  Agrees with
    :func:`ratio_ccdf` to near machine precision, and equals it at the ends
    of the support; kept as an independent route for validation.
    """
    if not x >= 0.0:
        raise ParameterDomainError(f"x must be nonnegative, got {x}")
    if x == 0.0 or x == math.inf:
        return 1.0 if x == 0.0 else 0.0
    normalized, _ = normalize_diff(diff_stable_params(x, spec))
    return 1.0 - zero_crossing_prob(normalized)


def _series_sum(first_term, terms, ctrl: SeriesControl, what: str, argument: float):
    """Shared truncation loop with growth-based divergence detection.

    ``terms`` yields ``(value, is_structural_zero)`` pairs; structural zeros
    (poles of the reciprocal gamma) are skipped without affecting the
    growth or convergence tests.
    """
    total = 0.0
    prev_mag = None
    growth = 0
    for m, (term, is_zero) in enumerate(terms, start=first_term):
        if is_zero:
            continue
        mag = abs(term)
        if not math.isfinite(mag):
            raise SeriesDivergenceError(
                f"{what} overflowed at term {m} (argument {argument:g})",
                argument=argument,
            )
        total += term
        if mag < ctrl.tol:
            return total
        if prev_mag is not None and mag > prev_mag:
            growth += 1
            if growth >= _GROWTH_LIMIT:
                raise SeriesDivergenceError(
                    f"{what} terms grew for {_GROWTH_LIMIT} consecutive terms "
                    f"before reaching tol={ctrl.tol:g} (argument {argument:g})",
                    argument=argument,
                )
        else:
            growth = 0
        prev_mag = mag
    raise SeriesDivergenceError(
        f"{what} did not reach tol={ctrl.tol:g} within {ctrl.max_terms} terms "
        f"(argument {argument:g})",
        argument=argument,
    )


def ratio_laplace(s: float, spec: RatioSpec, ctrl: SeriesControl | None = None) -> float:
    """Laplace transform E[exp(-s * S1/S2)] of the shot-noise ratio, by series.

    The expansion argument is ``(lambda2 / lambda1) * s ** (-2 / alpha)``;
    terms whose reciprocal gamma sits on a pole contribute exactly zero.
    The expansion is asymptotic: for arguments that are too large the terms
    grow and a :class:`SeriesDivergenceError` is raised naming the argument.
    """
    if ctrl is None:
        ctrl = SeriesControl()
    if not s > 0.0:
        raise ParameterDomainError(f"s must be positive, got {s}")
    d = spec.delta
    z = spec.density_ratio * s ** (-d)

    def terms():
        for m in range(1, ctrl.max_terms + 1):
            rg = reciprocal_gamma(1.0 - m * d)
            if rg == 0.0:
                yield 0.0, True
            else:
                sign = 1.0 if m % 2 == 1 else -1.0
                yield sign * rg * z**m, False

    return _series_sum(1, terms(), ctrl, "shot-noise ratio Laplace series", z)


def shot_noise_pdf(x: float, density: float, alpha: float,
                   ctrl: SeriesControl | None = None) -> float:
    """Density of a single shot-noise sum at ``x``, by series expansion.

    Valid in the upper range of the distribution where the expansion
    argument ``density * pi * Gamma(1 - 2/alpha) / x ** (2/alpha)`` is small;
    for ``x`` too small the terms grow and a divergence error is raised
    rather than guessing at a convergence boundary.
    """
    if ctrl is None:
        ctrl = SeriesControl()
    if not 0.0 < x < math.inf:
        raise ParameterDomainError(f"x must be positive and finite, got {x}")
    if not 0.0 < density < math.inf:
        raise ParameterDomainError(f"density must be positive and finite, got {density}")
    if not 2.0 < alpha < math.inf:
        raise ParameterDomainError(f"alpha must exceed 2 and be finite, got {alpha}")
    d = 2.0 / alpha
    z = density * math.pi * math.gamma(1.0 - d) / x**d
    log_z = math.log(z)

    def terms():
        for m in range(1, ctrl.max_terms + 1):
            md = m * d
            # sin(pi * m * d) vanishes exactly when m * d is an integer;
            # detect that structurally instead of trusting a ~1e-16 residue.
            if abs(md - round(md)) < 1e-9:
                yield 0.0, True
                continue
            sign = 1.0 if m % 2 == 1 else -1.0
            mag = math.exp(math.lgamma(1.0 + md) - math.lgamma(m + 1.0) + m * log_z)
            yield sign * math.sin(math.pi * md) * mag, False

    acc = _series_sum(1, terms(), ctrl, "shot-noise density series", z)
    return acc / (math.pi * x)
