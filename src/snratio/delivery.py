"""Delivery-probability analysis for aligned content transmission.

Setting: helpers form a planar Poisson process, each caches one file drawn
from a popularity profile, and all helpers transmitting the same file use
the same modulation so their signals combine at a receiver requesting that
file.  Conditioned on the request, the SIR is then a ratio of shot noises
weighted by fading, and the conditional delivery probability P(SIR > theta)
follows from the shot-noise ratio tail.

This module provides the conditional probability in its expectation form,
its alpha = 4 specialization and a series form driven by empirical inverse
moments of the fading-weighted popularity of the competing files; upper and
lower bounds, the high-threshold approximation, the closed form for the
conventional nearest-helper service without alignment, and the resulting
alignment gain.  The three sampled forms share one driver, which returns
the coefficient-weighted sum of per-file conditional probabilities on one
fading batch: the popularity-weighted total is the sum over every file, and
a conditional probability is the one-file total with coefficient 1.  The
batch is drawn and weighted once per scenario and shared by every form.

All closed forms are independent of the helper density; the density is
carried on the scenario only for the Monte Carlo simulator, whose windows
scale with it (:func:`snratio.simulate.default_region`), so no simulator
estimate depends on it either, beyond rounding.
"""

from __future__ import annotations

import functools
import math
import mmap
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DegenerateScenarioError,
    MomentReliabilityWarning,
    ParameterDomainError,
)
from .mc import Estimate, Moments, check_integer, substream
from .popularity import PopularityProfile, ZipfSpec, zipf
from .shotnoise import SeriesControl, _series_sum, reciprocal_gamma

#: Target size of a streamed fading batch's chunks (samples x files), of
#: the series form's blocks of g samples (a quarter of it), and of the lower
#: bound's quadrature blocks (files x nodes).
_FADING_CHUNK_CELLS = 4_000_000

#: Cells (samples x files) per row block of the sampled forms' kernel, so
#: that its temporaries stay in cache whatever the file count.
_KERNEL_BLOCK_CELLS = 1 << 15

#: Largest fading batch (samples x files) whose draws, and whose weighting
#: for the last (profile, alpha), are memoized, each as one array; together
#: they hold at most 2 * 2 ** 24 cells (256 MB).  A larger batch is drawn
#: and weighted again, one chunk at a time, by every form that reads it, so
#: memory stays bounded as the file count grows.
_FADING_MEMO_CELLS = 1 << 24

#: Unit roundoff of a double: the incomplete-beta series stops below it.
_EPS = np.finfo(float).eps

#: Default truncation tolerance of the delivery series.
_SERIES_TOL = 1e-10

#: Relative-standard-error threshold above which an empirical inverse moment
#: is flagged as untrustworthy.
_MOMENT_RSE_LIMIT = 0.10

TOTAL_METHODS = ("expectation", "alpha4", "series", "upper", "lower", "baseline")


@dataclass(frozen=True)
class Scenario:
    """A network instance: popularity profile, path loss, SIR thresholds, density."""

    profile: PopularityProfile
    alpha: float
    thresholds: np.ndarray
    helper_density: float

    def __init__(self, profile, alpha, thresholds, helper_density):
        th = np.atleast_1d(_threshold_domain(thresholds, alpha)).copy()
        if th.ndim != 1:
            raise ParameterDomainError(
                f"thresholds must be a scalar or one-dimensional, got shape {th.shape}")
        if not 0.0 < helper_density < math.inf:
            raise ParameterDomainError(
                f"helper_density must be positive and finite, got {helper_density}")
        if th.size == 1 and profile.n_files > 1:
            th = np.full(profile.n_files, th[0])
        if th.size != profile.n_files:
            raise ParameterDomainError(
                f"need one threshold per file: {th.size} thresholds, {profile.n_files} files"
            )
        th.setflags(write=False)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "helper_density", float(helper_density))

    @classmethod
    def from_zipf(cls, n_files, gamma, theta, alpha, helper_density=0.1):
        return cls(zipf(ZipfSpec(n_files, gamma)), alpha, theta, helper_density)

    @property
    def n_files(self) -> int:
        return self.profile.n_files

    @property
    def delta(self) -> float:
        return 2.0 / self.alpha


@dataclass(frozen=True)
class FadingBatch:
    """Size and seed of the fading sample used for the expectation forms."""

    sample_count: int = 20000
    seed: int = 0

    def __post_init__(self):
        check_integer("sample_count", self.sample_count, 1)
        check_integer("seed", self.seed, 0)


def _check_file_index(n_files: int, k: int):
    check_integer("file index", k, 0)
    if k >= n_files:
        raise ParameterDomainError(f"file index {k} out of range for {n_files} files")


@functools.lru_cache(maxsize=1)
def _memo_exponentials(seed: int, sample_count: int, n_files: int) -> np.ndarray:
    """The batch's (sample_count, n_files) unit-mean exponential draws, read-only.

    One call on the keyed SFC64 substream ``substream(seed, 0)``
    (:func:`mc.substream`) draws the whole batch, row after row, so every
    form that agrees on the seed, sample count and file count, whatever its
    method, thresholds or path-loss exponent, reads the same draws (common
    random numbers).  Only the last key is held: 8 * sample_count * n_files
    bytes (6.4 MB at S = 10 000, N = 80; 80 MB at S = 20 000, N = 500).
    """
    h = substream(seed, 0).exponential(size=(sample_count, n_files))
    h.setflags(write=False)
    return h


def _weigh(h: np.ndarray, weights: np.ndarray, d: float, weighted: np.ndarray, totals=None):
    """The weighting W = a * h ** d of the draws ``h`` into ``weighted``, and its row sums.

    The power is taken in row blocks of about ``_KERNEL_BLOCK_CELLS`` cells,
    so its temporary stays in cache; ``weighted`` may be ``h`` itself.
    """
    rows = max(1, _KERNEL_BLOCK_CELLS // h.shape[1])
    for i in range(0, h.shape[0], rows):
        np.multiply(h[i:i + rows] ** d, weights, out=weighted[i:i + rows])
    return weighted, np.add.reduce(weighted, axis=1, out=totals)


def _mapped_floats(count: int) -> np.ndarray:
    """``count`` float cells in an anonymous memory mapping of their own.

    The weighting memo lives across calls, often made from a pool thread.
    Left to glibc's malloc it lands inside that thread's arena, where it
    keeps the space around it from being reused or returned: a 1.6 MB
    entry raised the peak RSS of three ``validate`` runs by about 15 MB.
    A mapping of its own is unmapped whole when the entry is dropped.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * count), dtype=float, count=count)


#: ``(key, (weighted, totals))`` of the last memoized weighting, or None;
#: rebound as one tuple, so a thread never sees the key of one entry with
#: the arrays of another.
_weighted_memo = None


def _fading_chunks(profile: PopularityProfile, alpha: float, batch: FadingBatch):
    """Yield (weighted, row_total) chunks of the batch: weighted = a * h ** (2/alpha).

    Where the batch fits in ``_FADING_MEMO_CELLS`` it is one chunk: the
    draws of :func:`_memo_exponentials`, weighted once per (draws, alpha,
    profile weights) key into one read-only (S, N) matrix and its row
    totals in a mapping of their own, so every form on one scenario and
    batch shares one weighting pass.  The old entry is dropped before a new
    one is weighted, so the memo never holds two.  A larger batch is drawn
    and weighted on every call, in place, in chunks of about
    ``_FADING_CHUNK_CELLS`` cells, from the same stream.  The draws fill the
    rows in order either way, so the chunks stacked hold the same numbers.
    """
    global _weighted_memo
    n, s = profile.n_files, batch.sample_count
    d = 2.0 / alpha
    if s * n > _FADING_MEMO_CELLS:
        rng, rows = substream(batch.seed, 0), max(1, _FADING_CHUNK_CELLS // n)
        for start in range(0, s, rows):
            h = rng.exponential(size=(min(rows, s - start), n))
            yield _weigh(h, profile.weights, d, h)
        return
    key = (batch.seed, s, n, alpha, profile.weights.tobytes())
    entry = _weighted_memo
    if entry is None or entry[0] != key:
        entry = _weighted_memo = None
        buf = _mapped_floats(s * n + s)
        chunk = _weigh(_memo_exponentials(batch.seed, s, n), profile.weights, d,
                       buf[:s * n].reshape(s, n), buf[s * n:])
        for a in chunk:
            a.setflags(write=False)
        entry = _weighted_memo = (key, chunk)
    yield entry[1]


def _faded_tail(y, alpha):
    """E_h[tail(y * h ** (2/alpha))] over unit-mean exponential h.

    The shot-noise-ratio tail at weighted density ratio r, tail(r), is
    alpha / (2 pi) times an angle psi in (0, 2 pi / alpha) that grows with
    the ratio r = sin(psi) / sin(2 pi / alpha - psi), so the mean
    is exactly (alpha / 2 pi) * int_0^(2 pi / alpha) P(y h^(2/alpha) > r) dpsi
    = (alpha / 2 pi) * int exp(-(r / y) ** (alpha / 2)) dpsi; at alpha = 4 it
    is erfcx(1 / y).  With psi = (2 pi / alpha) * p, p = 1 / (1 + exp(-s))
    the logistic function, the integrand decays like exp(-|s|), and the
    trapezoid rule on s in [-60, 30] with spacing at most 0.75 / alpha gives
    it to about 1e-10 relative; exp(60) is far from overflow.  The
    complement 2 pi / alpha - psi is taken as (2 pi / alpha) * q, q = 1 /
    (1 + exp(s)), so nothing cancels.  Row blocks of at most
    ``_FADING_CHUNK_CELLS`` cells bound the memory; each value is reduced
    within its own row, so the blocking does not change the bits.
    """
    span = 2.0 * math.pi / alpha
    s, step = np.linspace(-60.0, 30.0, math.ceil(120.0 * alpha) + 1, retstep=True)
    p, q = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))
    log_r = np.log(np.sin(span * p)) - np.log(np.sin(span * q))
    weights = step * p * q
    weights[[0, -1]] *= 0.5
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        log_y = np.log(y).ravel()
    out = np.empty(log_y.size)
    block = max(1, _FADING_CHUNK_CELLS // s.size)
    for i in range(0, log_y.size, block):
        with np.errstate(over="ignore"):
            rate = np.exp((alpha / 2.0) * np.add.outer(-log_y[i:i + block], log_r))
        out[i:i + block] = (np.exp(-rate) * weights).sum(axis=1)
    return out.reshape(y.shape)


def _tail_mix(weighted: np.ndarray, totals: np.ndarray, coefs: np.ndarray,
              t: np.ndarray, span: float, cos_span: float) -> np.ndarray:
    """Per row, sum_k coefs[k] * (shot-noise-ratio tail of file k given the fading).

    ``weighted`` holds W_k = a_k * h_k ** (2/alpha) for the files summed,
    ``totals`` the row sums of W over every file, so g_k = totals - W_k, and
    ``t`` holds theta_k ** (2/alpha).  At r = W_k / (t_k * g_k) the tail
    (alpha / 2 pi) * arctan(tan(pi / alpha) * (r - 1) / (r + 1)) + 1/2 is
    psi / span, span = 2 pi / alpha, with psi in [0, span] the angle of the
    point (t_k * g_k + W_k * cos(span), W_k * sin(span)): one arctan2 per
    cell and no power or division, so the tail is exactly 0 where a_k = 0
    and nothing divides by zero where a_k or g_k is 0.  At alpha = 4,
    cos(span) = 0 and the tail is the arctan form 1 - (2/pi) *
    arctan(sqrt(theta_k) * g_k / W_k).  Rows go in
    blocks of about ``_KERNEL_BLOCK_CELLS`` cells, and each row is reduced
    within itself, so neither the blocks nor the fading chunks change a bit.
    """
    c = coefs / span
    sin_span = math.sin(span)
    out = np.empty(totals.size)
    rows = max(1, _KERNEL_BLOCK_CELLS // weighted.shape[1])
    for i in range(0, totals.size, rows):
        w = weighted[i:i + rows]
        den = totals[i:i + rows, None] - w
        den *= t
        psi = np.multiply(w, cos_span)
        den += psi
        np.multiply(w, sin_span, out=psi)
        np.arctan2(psi, den, out=psi)
        psi *= c
        out[i:i + rows] = psi.sum(axis=1)
    return out


def conditional_delivery_prob(k: int, scenario: Scenario, batch: FadingBatch) -> Estimate:
    """Conditional delivery probability of file ``k``, expectation form.

    Averages the shot-noise-ratio tail over the joint fading of the
    requested file and its competitors.  A single-file database succeeds
    with probability 1 by convention (empty interference).
    """
    _check_file_index(scenario.n_files, k)
    return _sampled_total(scenario, "expectation", batch, range(k, k + 1), (1.0,))


def conditional_delivery_prob_alpha4(k: int, scenario: Scenario, batch: FadingBatch) -> Estimate:
    """The arctan specialization of the conditional probability at alpha = 4."""
    _check_file_index(scenario.n_files, k)
    return _sampled_total(scenario, "alpha4", batch, range(k, k + 1), (1.0,))


def _competing_g(profile: PopularityProfile, alpha: float, batch: FadingBatch,
                 files: range, out: np.ndarray | None = None) -> np.ndarray:
    """The batch's samples of g_k for each file k in ``files``, from its weighted chunks.

    Row i holds g for file ``files[i]``; each row is contiguous, so a
    reduction over it is the same whatever block of files it came in.  The
    samples are written into ``out``, of shape (len(files), sample_count),
    where it is given.
    """
    g = np.empty((len(files), batch.sample_count)) if out is None else out
    row = 0
    for weighted, totals in _fading_chunks(profile, alpha, batch):
        end = row + totals.size
        np.subtract(totals, weighted[:, files.start:files.stop].T, out=g[:, row:end])
        row = end
    return g


def _inverse_powers(g: np.ndarray):
    """Yield the samples of g ** -m for m = 1, 2, ..., each the last times 1 / g."""
    inv = 1.0 / g
    vals = inv
    while True:
        yield vals
        vals = vals * inv


def _moment_stats(vals: np.ndarray):
    """The mean of the samples ``vals`` and its relative standard error.

    The mean and the spread are formed as ``vals.mean()`` and
    ``vals.std(ddof=1)`` form them, with the same operations in the same
    order and so the same bits, without their per-call overhead.
    """
    n = vals.size
    mu = float(np.add.reduce(vals) / n)
    sd = 0.0
    if n > 1:
        dev = vals - mu
        np.multiply(dev, dev, out=dev)
        sd = math.sqrt(np.add.reduce(dev) / (n - 1))
    return mu, sd / (math.sqrt(n) * mu) if mu > 0 else np.inf


def inverse_g_moments(profile: PopularityProfile, k: int, alpha: float,
                      batch: FadingBatch, m_max: int):
    """Empirical negative moments E[g_k ** -m] for m = 1 .. m_max.

    Returns ``(means, rses)``; each relative standard error above 10%
    marks a moment whose Monte Carlo value should not be trusted (high
    inverse moments can be heavy-tailed or outright infinite).  Reads the
    batch's memoized weighting (:func:`_fading_chunks`), so it shares one
    weighting pass with every other sampled form on the same profile,
    path-loss exponent and batch.  The series forms do not call this
    function but take g_k for a block of files from the same weighting, and
    compute only the moments their truncation loop reads.  Where no other
    file has positive popularity, g_k is 0 and the moments raise
    :class:`DegenerateScenarioError`.
    """
    if profile.n_files == 1:
        raise DegenerateScenarioError("no competing files to take moments over")
    _check_file_index(profile.n_files, k)
    check_integer("m_max", m_max, 1)
    if not np.any(np.delete(profile.weights, k)):
        raise DegenerateScenarioError(
            f"every file competing with file {k} has popularity 0, so g_{k} is 0")
    g = _competing_g(profile, alpha, batch, range(k, k + 1))[0]
    means = np.empty(m_max)
    rses = np.empty(m_max)
    for m, vals in zip(range(m_max), _inverse_powers(g)):
        means[m], rses[m] = _moment_stats(vals)
    return means, rses


def _series_mix(k: int, scenario: Scenario, g: np.ndarray, ctrl: SeriesControl):
    """The series form for file ``k`` from its samples ``g`` of g_k.

    Returns the series value, the sum of its terms c_m * E[g_k ** -m], and
    the per-sample mix sum_m c_m * g_k ** -m over the same terms, whose
    sample spread is the value's standard error: every term reads the same
    draws, so the terms' errors are correlated, not independent.  A file
    with a_k = 1 has no competitor (g_k = 0): its value is exactly 1 and
    its mix 0, as the lower bound's at a_k = 1.
    """
    a_k = float(scenario.profile.weights[k])
    if a_k == 1.0:
        return 1.0, np.zeros(g.size)
    theta = float(scenario.thresholds[k])
    d = scenario.delta
    y = a_k / theta**d
    mix = np.zeros(g.size)

    def terms():
        nonlocal mix
        for m, vals in zip(range(1, ctrl.max_terms + 1), _inverse_powers(g)):
            rg = reciprocal_gamma(1.0 - m * d)
            if rg == 0.0:
                yield 0.0, True
                continue
            moment, rse = _moment_stats(vals)
            coef = (1.0 if m % 2 == 1 else -1.0) * rg * y**m
            term = coef * moment
            if rse > _MOMENT_RSE_LIMIT and ctrl.tol <= abs(term) < math.inf:
                # stacklevel 6: this generator, _series_sum, _series_mix,
                # _sampled_total, the public entry point, its caller.
                warnings.warn(
                    f"inverse moment m={m} has relative standard error "
                    f"{rse:.1%}; series value may be unreliable",
                    MomentReliabilityWarning,
                    stacklevel=6,
                )
            mix += coef * vals
            yield term, False

    total = _series_sum(1, terms(), ctrl,
                        f"delivery series (popularity {a_k:g}, threshold {theta:g})", y)
    return total, mix


def conditional_delivery_prob_series(k: int, scenario: Scenario, max_terms: int,
                                     batch: FadingBatch, tol: float = _SERIES_TOL) -> Estimate:
    """Conditional delivery probability as a series over inverse moments.

    Each term couples ``(a_k / theta_k ** (2/alpha)) ** m`` with the
    empirical moment E[g_k ** -m]; reciprocal-gamma poles contribute exactly
    zero.  Terms that grow for three consecutive orders raise
    :class:`SeriesDivergenceError`: the sufficient condition that the
    per-term root stays below 1 is violated at this popularity/threshold.
    Reads the batch's memoized weighting, and computes each moment only
    when the truncation loop reads its term.
    """
    _check_file_index(scenario.n_files, k)
    return _sampled_total(scenario, "series", batch, range(k, k + 1), (1.0,), max_terms, tol)


def _sampled_total(scenario: Scenario, method: str, batch: FadingBatch, files: range,
                   coefs, max_terms: int | None = None, tol: float = _SERIES_TOL) -> Estimate:
    """sum_i coefs[i] * P_(files[i]) by the ``expectation``, ``alpha4`` or ``series`` form.

    ``files`` is a range of consecutive files.  Every file reads the
    batch's common draws, so the stderr is the sample spread of one
    per-sample mix over every file (and series term), which carries their
    correlation and does not depend on the chunking.  Every form reads the
    weighting W = a * h ** (2/alpha) of :func:`_fading_chunks`, made once
    per profile, path-loss exponent and batch where the batch is memoized.
    The expectation and alpha4 forms are one blocked pass: each fading
    chunk's W and its row sums feed :func:`_tail_mix`, which takes every
    file at once, in row blocks of about ``_KERNEL_BLOCK_CELLS`` cells, and
    sums each row over the files; the alpha4 form is the same kernel with
    cos(2 pi / alpha) taken as exactly 0, its value at alpha = 4.  The
    series form reads the chunks once per block of files whose g samples
    fit in a quarter of ``_FADING_CHUNK_CELLS``, into one buffer that every
    block reuses, so that one block of g is held at a time.  It takes each
    file's inverse moments, a running product of 1 / g_k, only as far as
    its truncation loop reads them.  A conditional probability is the
    one-file total.
    """
    if method == "alpha4" and scenario.alpha != 4.0:
        raise ContractError(f"the alpha4 form requires alpha = 4, got {scenario.alpha}")
    ctrl = SeriesControl(max_terms, tol) if method == "series" else None
    if scenario.n_files == 1:
        return Estimate(1.0, 0.0, batch.sample_count, batch.seed)
    if ctrl is not None:
        total, mix = 0.0, np.zeros(batch.sample_count)
        per_pass = max(1, _FADING_CHUNK_CELLS // (4 * batch.sample_count))
        buf = np.empty((min(per_pass, len(files)), batch.sample_count))
        for start in range(0, len(files), per_pass):
            block = files[start:start + per_pass]
            g = _competing_g(scenario.profile, scenario.alpha, batch, block, buf[:len(block)])
            for k, c_k, g_k in zip(block, coefs[start:start + per_pass], g):
                mean_k, mix_k = _series_mix(k, scenario, g_k, ctrl)
                total += c_k * mean_k
                mix += c_k * mix_k
        return replace(Moments.of(mix).estimate(batch.seed), mean=total)
    cols = slice(files.start, files.stop)
    t = scenario.thresholds[cols] ** scenario.delta
    span = 2.0 * math.pi / scenario.alpha
    cos_span = 0.0 if method == "alpha4" else math.cos(span)
    c = np.asarray(coefs, dtype=float)
    mix = [_tail_mix(weighted[:, cols], totals, c, t, span, cos_span)
           for weighted, totals in _fading_chunks(scenario.profile, scenario.alpha, batch)]
    return Moments.of(np.concatenate(mix)).estimate(batch.seed)


def high_sir_approx(a_k, theta, alpha: float):
    """Leading-order conditional delivery probability for large thresholds.

    Linear in ``a_k / (1 - a_k)``; requires ``a_k < 1``.  Elementwise over
    array-valued ``a_k`` and ``theta``.
    """
    a = np.asarray(a_k, dtype=float)
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ContractError(f"a_k must lie in (0, 1), got {a_k}")
    th = _threshold_domain(theta, alpha)
    d = 2.0 / alpha
    return (math.sin(math.pi * d) / (math.pi * d)) * th ** (-d) * a / (1.0 - a)


def _bound_domain(a_k, theta, alpha: float):
    """``a_k`` and ``theta`` as float arrays, after the domain check every
    closed form shares: a_k in (0, 1], theta > 0 and alpha > 2, both finite."""
    a = np.asarray(a_k, dtype=float)
    if not np.all((a > 0.0) & (a <= 1.0)):
        raise ParameterDomainError(f"a_k must lie in (0, 1], got {a_k}")
    return a, _threshold_domain(theta, alpha)


def _threshold_domain(theta, alpha: float):
    """``theta`` as a float array, after checking theta > 0 and alpha > 2, both finite."""
    th = np.asarray(theta, dtype=float)
    if not np.all((th > 0.0) & np.isfinite(th)):
        raise ParameterDomainError(f"theta must be positive and finite, got {theta}")
    if not 2.0 < alpha < math.inf:
        raise ParameterDomainError(f"alpha must exceed 2 and be finite, got {alpha}")
    return th


def delivery_upper_bound(a_k, theta, alpha: float):
    """Closed-form upper bound on the conditional delivery probability.

    Elementwise over array-valued ``a_k`` and ``theta``.
    """
    return _upper_bound(*_bound_domain(a_k, theta, alpha), alpha)


def _upper_bound(a, th, alpha: float):
    """The upper bound of :func:`delivery_upper_bound` on checked arrays."""
    return 1.0 / (1.0 + th ** (2.0 / alpha) * (1.0 / a - 1.0))


def _lower_bound(a_k, theta, alpha: float):
    """The lower bound of :func:`delivery_lower_bound`, elementwise over arrays."""
    a, th = _bound_domain(a_k, theta, alpha)
    d = 2.0 / alpha
    with np.errstate(divide="ignore"):
        eta = a / ((1.0 - a) * math.gamma(1.0 + d) * th**d)
    return np.where(a == 1.0, 1.0, _faded_tail(eta, alpha))


def delivery_lower_bound(a_k: float, theta: float, alpha: float,
                         batch: FadingBatch) -> Estimate:
    """Lower bound on the conditional delivery probability (fading average).

    Jensen's inequality replaces the competing files' fading-weighted
    popularity by its mean (1 - a_k) * Gamma(1 + 2/alpha); the average over
    the requested file's own fading is then one finite integral, evaluated
    to about 1e-10 relative.  The bound is exact, not sampled: the Estimate
    has stderr 0 and ``trials`` 1, and ``batch`` only supplies its seed.  At
    ``a_k = 1`` the bound equals 1 exactly.
    """
    return Estimate(float(_lower_bound(a_k, theta, alpha)), 0.0, 1, batch.seed)


def _erfcx(x):
    """The scaled complementary error function exp(x ** 2) * erfc(x), for x >= 0.

    Below x = 4 the product is formed directly; from there on exp(x ** 2)
    would magnify the rounding of x ** 2, so the value is the continued
    fraction of DLMF 7.9.2.  Its truncation error falls with x: 5 + 90 / x
    levels keep it below 1e-18 relative at every x >= 4 (25 levels are
    needed at x = 4, 4 at x = 100).  Elementwise over arrays, with the bits
    of the scalar path: below 4 each element takes ``math``'s exp and erfc,
    since numpy's exp may differ from libm in the last bit, and from 4 on
    the continued fraction runs on the whole array, each element updated
    only on its own levels.
    """
    if np.ndim(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        lo = x < 4.0
        out[lo] = [math.exp(v * v) * math.erfc(v) for v in x[lo].tolist()]
        hi = x[~lo]
        levels = 5 + (90.0 / hi).astype(int)
        t = hi
        for k in range(int(levels.max(initial=0)), 0, -1):
            t = np.where(k <= levels, hi + 0.5 * k / t, t)
        out[~lo] = 1.0 / (math.sqrt(math.pi) * t)
        return out
    x = float(x)
    if x < 4.0:
        return math.exp(x * x) * math.erfc(x)
    t = x
    for k in range(5 + int(90.0 / x), 0, -1):
        t = x + 0.5 * k / t
    return 1.0 / (math.sqrt(math.pi) * t)


class Alpha4Bounds(NamedTuple):
    upper: float
    lower_a: float
    lower_b: float


def alpha4_bounds(a_k, theta) -> Alpha4Bounds:
    """Closed-form upper and lower bounds at alpha = 4.

    ``lower_a`` is the incomplete-gamma bound erfcx(sqrt(zeta)), zeta = (pi
    theta / 4) * ((1 - a_k) / a_k) ** 2, evaluated through the scaled
    complementary error function for stability at all skews; sqrt(zeta) is
    formed directly, so zeta itself cannot overflow at tiny a_k.  ``lower_b``
    is the simpler arctan bound, which is never tighter than ``lower_a``.
    Elementwise over array-valued ``a_k`` and ``theta``.
    """
    a, th = _bound_domain(a_k, theta, 4.0)
    upper = _upper_bound(a, th, 4.0)
    root_th, odds = np.sqrt(th), 1.0 / a - 1.0
    lower_a = _erfcx((math.sqrt(math.pi) / 2.0) * root_th * odds)
    lower_b = 1.0 - (2.0 / math.pi) * np.arctan((math.pi * root_th / 2.0) * odds)
    return Alpha4Bounds(upper, lower_a, lower_b)


def _beta_tail(x, a):
    """sum_(n >= 1) (a)_n / n! * x ** n / (a + n) = x ** -a * B_x(a, 1 - a) - 1 / a.

    The power series of the incomplete beta function (DLMF 8.17.7) without
    its leading term 1 / a.  Elementwise over ``x`` and ``a``.  For 0 < x <=
    1/2 and 0 < a < 1 every term is positive and the n-th is below x ** n,
    so the sum stops at the first n with max(x) ** n < eps.
    """
    x, a = np.asarray(x), np.asarray(a)[..., None]
    n = np.arange(1, math.ceil(math.log(_EPS) / math.log(x.max(initial=_EPS))))
    terms = np.cumprod(x[..., None] * ((n - 1.0 + a) / n), axis=-1)
    return (terms / (a + n)).sum(axis=-1)


@functools.lru_cache(maxsize=16)
def _mu_split(d: float) -> float:
    """B_(1/2)(1 - d, d) + 2 ** -d * _beta_tail(1/2, d), by the series at x = 1/2."""
    tail = _beta_tail(0.5, [1.0 - d, d])
    return float(0.5 ** (1.0 - d) * (1.0 / (1.0 - d) + tail[0]) + 0.5**d * tail[1])


def mu_integral(theta, alpha: float):
    """The near-field interference integral of the nearest-helper service.

    Integral over [1, inf) of 1 / (1 + x ** (alpha/2) / theta).  With d =
    2 / alpha it is theta ** d * d * B_x(1 - d, d) at x = theta / (1 +
    theta), an incomplete beta function (DLMF 8.17), summed as its power
    series (:func:`_beta_tail`).  For theta < 1, x < 1/2 and the series
    converges at least as fast as 2 ** -n.  For theta >= 1 the integral is
    split at 1/2: B_(1/2)(1 - d, d) plus the integral of s ** (d - 1) *
    (1 - s) ** -d from y = 1 / (1 + theta) to 1/2, summed term by term in
    powers of y <= 1/2, its leading term (2 ** -d - y ** d) / d by expm1.
    Every part is positive, so nothing cancels, whereas the complement
    pi / sin(pi d) - B_y(d, 1 - d) loses up to 1.5 digits at alpha = 50 near
    theta = 1.  On theta in [1e-12, 1e12] and alpha in [2.05, 50] the value
    agrees with a 50-digit evaluation to 2e-15 relative.  Elementwise over
    array-valued ``theta``.
    """
    th = _threshold_domain(theta, alpha)
    d = 2.0 / alpha
    lo = th < 1.0
    x = np.where(lo, th, 1.0) / (1.0 + th)
    a = np.where(lo, 1.0 - d, d)
    xa, tail = x**a, _beta_tail(x, a)
    b = np.where(lo, xa * (1.0 / a + tail),
                 _mu_split(d) - 0.5**d * np.expm1(d * np.log(2.0 * x)) / d - xa * tail)
    return th**d * d * b


def baseline_delivery_prob(a_k, theta, alpha: float):
    """Conditional delivery probability for nearest-helper service, no alignment.

    Every co-channel helper, including those holding the same file, appears
    as independently faded interference; only the nearest helper holding the
    requested file serves.  Elementwise over array-valued ``a_k`` and
    ``theta``.
    """
    a, th = _bound_domain(a_k, theta, alpha)
    d = 2.0 / alpha
    scale = (math.pi * d) / math.sin(math.pi * d)
    return 1.0 / (1.0 + mu_integral(th, alpha) + th**d * scale * (1.0 / a - 1.0))


def alignment_gain_approx(a_1, theta_1, alpha: float):
    """Approximate ratio of delivery probabilities with and without alignment.

    Driven by the most popular file; grows with its popularity and tends to
    ``1 + mu(theta, alpha)`` as that popularity approaches 1.  Elementwise
    over array-valued ``a_1`` and ``theta_1``.
    """
    a, th = _bound_domain(a_1, theta_1, alpha)
    return 1.0 + mu_integral(th, alpha) / (1.0 + th ** (2.0 / alpha) * (1.0 / a - 1.0))


_CLOSED_FORMS = {"upper": delivery_upper_bound, "lower": _lower_bound,
                 "baseline": baseline_delivery_prob}


def total_delivery_prob(scenario: Scenario, method: str, batch: FadingBatch,
                        max_terms: int = 60) -> Estimate:
    """Popularity-weighted delivery probability under the chosen method.

    ``method`` is one of ``expectation``, ``alpha4``, ``series``, ``upper``,
    ``lower`` or ``baseline``.  The three closed forms (``upper``, ``lower``
    and ``baseline``) are exact: one dot product of the popularity with the
    form evaluated on every file, an Estimate with stderr 0 and ``trials``
    1.  The sampled methods are one call of the driver behind the
    conditional probabilities, with every file and the popularity as
    coefficients; their stderr is the sample spread of one per-sample mix
    over every file, because all files read the same fading draws.  The
    draws are memoized, so totals on the same seed, sample count and file
    count share them across methods and scenarios; so is their weighting
    for the last profile and path-loss exponent, so the sampled methods on
    one scenario share one weighting pass.  Series divergence propagates to
    the caller.
    """
    if method not in TOTAL_METHODS:
        raise ParameterDomainError(f"unknown method {method!r}; expected one of {TOTAL_METHODS}")
    w = scenario.profile.weights
    if method in _CLOSED_FORMS:
        form = _CLOSED_FORMS[method](w, scenario.thresholds, scenario.alpha)
        return Estimate(float(w @ form), 0.0, 1, batch.seed)
    return _sampled_total(scenario, method, batch, range(scenario.n_files), w, max_terms)
