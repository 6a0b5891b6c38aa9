"""Heavy-tailed stable laws in the two classical parametrizations.

A stable law is described here by four parameters: the stability index
``delta`` in (0, 1), a skewness ``beta`` in [-1, 1], a location ``gamma``
and a scale ``mu`` > 0.  The index is 2 / alpha for a path-loss exponent
alpha > 2, so only the laws with ``delta`` < 1 arise; the ``delta`` = 1
and ``delta`` in (1, 2] cases of the general forms (Zolotarev, 1986) are
not carried.  Two equivalent parametrizations of the characteristic
function are supported, tagged Form A and Form B, which differ in how
skewness enters the log characteristic function.  Form B with unit scale
and zero location gives the probability of a negative value as
(1 - beta) / 2, which is what the shot-noise ratio machinery ultimately
consumes.

Everything in this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ParameterDomainError

FORM_A = "A"
FORM_B = "B"

#: Tolerance used when checking that a law has been normalized to unit scale.
_UNIT_SCALE_TOL = 1e-12


@dataclass(frozen=True)
class StableParams:
    """Parameter tuple of a stable law in Form A or Form B.

    Attributes
    ----------
    form : str
        Parametrization tag, ``"A"`` or ``"B"``.
    delta : float
        Stability index, in (0, 1).
    beta : float
        Skewness, in [-1, 1].
    gamma : float
        Location parameter, any real.
    mu : float
        Scale parameter, strictly positive.
    """

    form: str
    delta: float
    beta: float
    gamma: float
    mu: float

    def __post_init__(self):
        if self.form not in (FORM_A, FORM_B):
            raise ParameterDomainError(f"form must be 'A' or 'B', got {self.form!r}")
        if not 0.0 < self.delta < 1.0:
            raise ParameterDomainError(f"delta must lie in (0, 1), got {self.delta}")
        if not -1.0 <= self.beta <= 1.0:
            raise ParameterDomainError(f"beta must lie in [-1, 1], got {self.beta}")
        if not math.isfinite(self.gamma):
            raise ParameterDomainError(f"gamma must be finite, got {self.gamma}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ParameterDomainError(f"mu must be positive, got {self.mu}")


def char_fn(params: StableParams, t):
    """Characteristic function of a stable law, evaluated at real ``t``.

    Accepts a scalar or an array of ``t`` values; returns a complex scalar
    or array accordingly.
    """
    t_arr = np.asarray(t, dtype=float)
    d, b, g, m = params.delta, params.beta, params.gamma, params.mu
    sgn = np.sign(t_arr)
    if params.form == FORM_A:
        skew = 1.0 - 1j * b * sgn * math.tan(math.pi * d / 2.0)
    else:
        skew = np.exp(-1j * b * (math.pi / 2.0) * sgn * d)
    out = np.exp(1j * t_arr * m * g - m * np.abs(t_arr) ** d * skew)
    if np.isscalar(t) or np.ndim(t) == 0:
        return complex(out)
    return out


def convert(params: StableParams, target_form: str) -> StableParams:
    """Re-express a stable law in the other parametrization.

    The returned parameters describe the same distribution; converting back
    reproduces the original fields up to roundoff.  Converting to the form
    the law is already in returns the input unchanged.
    """
    if target_form not in (FORM_A, FORM_B):
        raise ParameterDomainError(f"target form must be 'A' or 'B', got {target_form!r}")
    if target_form == params.form:
        return params

    d = params.delta
    if params.form == FORM_B:  # B -> A
        c = math.cos(math.pi * params.beta * d / 2.0)
        beta_a = math.tan(math.pi * params.beta * d / 2.0) / math.tan(math.pi * d / 2.0)
        # |beta_a| <= 1 in reals; clip the last-ulp spill at |beta| = 1.
        beta_a = min(1.0, max(-1.0, beta_a))
        return StableParams(FORM_A, d, beta_a, params.gamma / c, params.mu * c)

    # A -> B: invert the tangent relation on the principal branch.
    beta_b = (2.0 / (math.pi * d)) * math.atan(params.beta * math.tan(math.pi * d / 2.0))
    beta_b = min(1.0, max(-1.0, beta_b))
    c = math.cos(math.pi * beta_b * d / 2.0)
    return StableParams(FORM_B, d, beta_b, params.gamma * c, params.mu / c)


def unit_scale(params: StableParams) -> tuple[StableParams, float]:
    """Normalize a zero-location Form-B law to unit scale.

    Returns the normalized parameters together with the factor ``s`` such
    that the original variable is distributed as ``s`` times the normalized
    one; for Form B the factor is ``mu ** (1 / delta)``.
    """
    if params.form != FORM_B:
        raise ContractError("scale normalization expects Form-B parameters")
    if params.gamma != 0.0:
        raise ContractError("scale normalization expects zero location")
    scale = params.mu ** (1.0 / params.delta)
    return replace(params, mu=1.0), scale


def zero_crossing_prob(params: StableParams) -> float:
    """Probability that a normalized Form-B stable variable is negative.

    Requires Form B with zero location and unit scale (normalize first via
    :func:`convert` and :func:`unit_scale`).  The result is (1 - beta) / 2:
    linear from 1 at ``beta = -1`` to 0 at ``beta = +1``.
    """
    if params.form != FORM_B:
        raise ContractError("zero-crossing probability expects Form-B parameters")
    if params.gamma != 0.0 or abs(params.mu - 1.0) > _UNIT_SCALE_TOL:
        raise ContractError(
            "zero-crossing probability expects a normalized law "
            f"(gamma=0, mu=1), got gamma={params.gamma}, mu={params.mu}"
        )
    return 0.5 * (1.0 - params.beta)
