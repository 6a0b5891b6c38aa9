"""Monte Carlo oracle: planar Poisson sampling, shot noise, and SIR trials.

The infinite plane is approximated by a disk around the origin.  The disk
radius for a process of density ``lam`` is the larger of two rules:

* the expected shot-noise mass beyond the disk,
  ``2 pi lam R**(2-alpha) / (alpha - 2)``, stays below ``tail_tol``;
* the expected in-disk point count stays at least ``pi * COVERAGE_FACTOR**2``,
  so the near field of the process is resolved even at low densities.

The analytic mean of the beyond-disk contribution is added back to every
truncated sum, so what is lost to the window is only the zero-mean
fluctuation of the far tail.  For coherent (complex-amplitude) sums the
compensation enters as an independent complex Gaussian of matching
variance.  A shot-noise sum therefore always holds its positive tail mean,
and no ratio denominator is ever zero.  Doubling the disk radius must leave
every reported estimate within one combined standard error; the validation
suite checks exactly that.

SIR trials: both models, aligned transmission and nearest-helper service,
are evaluated on one marked geometry per chunk of trials (``_Stratum``).
Each trial contributes its success probability given the geometry, with
the fading integrated out; complex mode keeps per-point fading and a 0/1
indicator for the aligned model.  A nearest-helper trial whose signal disk
is empty is served by the exact nearest point beyond it, so no SIR trial
is ever redrawn.  :func:`simulate_totals` runs both models on common
trials, so the alignment gain's standard error includes their covariance.

Reproducibility: all trial loops run over the fixed chunk grid of
:mod:`snratio.mc`, with one counter-based substream per chunk.  Per-chunk
aggregates (integer exceedance counts for the ratio sampler, the
:class:`~snratio.mc.Moments` of per-trial SIR values, or their
:class:`~snratio.mc.CoMoments` when both SIR models run together) are
merged in chunk order, so estimates are bit-identical under any
partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .delivery import Scenario, _check_file_index
from .errors import ParameterDomainError
from .mc import (
    CoMoments,
    Estimate,
    Moments,
    bernoulli_estimate,
    check_integer,
    gather_chunked_samples,
    mean_estimate,
    run_counting_chunks,
    substream,
)
from .popularity import decompose_densities
from .shotnoise import RatioSpec

#: Disk radii keep the expected in-window point count above
#: ``pi * COVERAGE_FACTOR ** 2`` (about 113 points).
COVERAGE_FACTOR = 6.0

#: Stream-index stride separating the chunk grids of per-file sub-runs.
_STREAM_STRIDE = 1_000_000

#: Cells per block of the dense (file x trial) sums of the aligned model:
#: a chunk's memory stays bounded as the file count N grows.
_BLOCK_CELLS = 1 << 19

#: Expected interferers per (trial, file) cell above which the aligned
#: model draws one Poisson count per cell instead of a trial label per
#: point; the two cost the same at about 7 points a cell.
_CELL_COUNT_POINTS = 8.0


@dataclass(frozen=True)
class DiskRegion:
    """Finite observation disk centred on the origin."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ParameterDomainError(f"radius must be positive, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2

    def doubled(self) -> "DiskRegion":
        return DiskRegion(self.radius * 2.0)


@dataclass(frozen=True)
class TrialConfig:
    """Trial count, master seed, window tolerance and worker threads of a simulation run.

    ``partitions`` sets the worker threads of the counting and moment runs
    only.  The four sample gatherers (``shot_noise_samples``,
    ``ratio_samples``, ``sir_samples_aligned`` and ``sir_samples_baseline``)
    run on the calling thread whatever it is: on a thread pool, each worker
    would hold a complex-mode chunk's four point-sized arrays at once, and
    the validation suite's peak memory was about 17% higher that way.  The
    validation suite spreads whole gatherers and runs over its ``partitions``
    threads instead (:func:`snratio.experiments.validate`).  No estimate or
    sample depends on ``partitions``.
    """

    trials: int
    seed: int = 0
    tail_tol: float = 1e-4
    partitions: int = 1

    def __post_init__(self):
        check_integer("trials", self.trials, 1)
        check_integer("seed", self.seed, 0)
        if not self.tail_tol > 0.0:
            raise ParameterDomainError("tail_tol must be positive")
        check_integer("partitions", self.partitions, 1)


def tail_mean(density: float, alpha: float, radius: float) -> float:
    """Expected shot-noise contribution of the process beyond ``radius``."""
    return 2.0 * math.pi * density * radius ** (2.0 - alpha) / (alpha - 2.0)


def rule_radius(density: float, alpha: float, tail_tol: float) -> float:
    """Smallest radius whose expected beyond-window mass is below ``tail_tol``."""
    return (2.0 * math.pi * density / ((alpha - 2.0) * tail_tol)) ** (1.0 / (alpha - 2.0))


def default_region(density: float, alpha: float, tail_tol: float) -> DiskRegion:
    """Default disk: the tail rule, floored so the near field is populated."""
    if not density > 0.0:
        raise ParameterDomainError(f"density must be positive, got {density}")
    if not alpha > 2.0:
        raise ParameterDomainError(f"alpha must exceed 2, got {alpha}")
    return DiskRegion(max(rule_radius(density, alpha, tail_tol),
                          COVERAGE_FACTOR / math.sqrt(density)))


def _disk_points(rng, mean, radius, size):
    """Poisson point counts per cell and the points' radii on a disk.

    ``mean`` (scalar, or broadcastable to ``size``) is the expected count per
    cell.  Returns ``(counts, cell, r)``: ``cell`` maps every point to its
    flat cell index, and ``r`` is uniform over the disk of ``radius``.
    """
    counts = rng.poisson(mean, size=size)
    r = rng.random(int(counts.sum()))
    np.sqrt(r, out=r)
    r *= radius
    cell = np.repeat(np.arange(counts.size), counts.ravel())
    return counts, cell, r


def _fill_regions(regions, defaults):
    """The given regions, with ``defaults()`` filling any that are ``None``."""
    if None not in regions:
        return regions
    return tuple(given or default for given, default in zip(regions, defaults()))


def _exceedances(cfg: TrialConfig, kernel, xs):
    """Per threshold in ``xs``, the number of trials whose value exceeds it."""

    def chunk(rng, n):
        values = kernel(rng, n)
        return tuple(int((values > x).sum()) for x in xs)

    return run_counting_chunks(cfg.trials, cfg.seed, chunk, cfg.partitions)


def _shot_chunk(density, alpha, region, rng, n_trials) -> np.ndarray:
    """Vectorized shot-noise sums for ``n_trials`` trials, tail mean added."""
    _, idx, r = _disk_points(rng, density * region.area, region.radius, n_trials)
    # bincount of no points is an integer array; the tail mean is added in place.
    s = np.bincount(idx, weights=np.power(r, -alpha, out=r),
                    minlength=n_trials).astype(float, copy=False)
    s += tail_mean(density, alpha, region.radius)
    return s


def shot_noise_samples(density: float, alpha: float, cfg: TrialConfig,
                       region: DiskRegion | None = None) -> np.ndarray:
    """Independent shot-noise samples, one per trial, in deterministic order."""
    if region is None:
        region = default_region(density, alpha, cfg.tail_tol)
    return gather_chunked_samples(cfg.trials, cfg.seed,
                                  lambda rng, n: _shot_chunk(density, alpha, region, rng, n))


def _ratio_chunk(rng, n, spec: RatioSpec, reg1, reg2) -> np.ndarray:
    """Ratio samples for one chunk; every denominator holds its positive tail mean."""
    s1 = _shot_chunk(spec.lambda1, spec.alpha, reg1, rng, n)
    return s1 / _shot_chunk(spec.lambda2, spec.alpha, reg2, rng, n)


def ratio_regions(spec: RatioSpec, cfg: TrialConfig) -> tuple[DiskRegion, DiskRegion]:
    return (default_region(spec.lambda1, spec.alpha, cfg.tail_tol),
            default_region(spec.lambda2, spec.alpha, cfg.tail_tol))


def _ratio_kernel(spec: RatioSpec, cfg: TrialConfig, regions):
    """``(rng, n) -> ratio`` on the given or the default windows."""
    regions = _fill_regions(regions, lambda: ratio_regions(spec, cfg))
    return lambda rng, n: _ratio_chunk(rng, n, spec, *regions)


def ratio_samples(spec: RatioSpec, cfg: TrialConfig,
                  region1: DiskRegion | None = None,
                  region2: DiskRegion | None = None) -> np.ndarray:
    """Independent samples of the shot-noise ratio, one per trial, in deterministic order.

    An empty denominator window gives ``s1 / tail_mean``: nothing is redrawn.
    """
    return gather_chunked_samples(cfg.trials, cfg.seed,
                                  _ratio_kernel(spec, cfg, (region1, region2)))


def empirical_ratio_ccdf(x: float, spec: RatioSpec, cfg: TrialConfig,
                         region1: DiskRegion | None = None,
                         region2: DiskRegion | None = None) -> Estimate:
    """Fraction of trials where the sampled shot-noise ratio exceeds ``x``."""
    (est,) = ratio_ccdf_estimates([x], spec, cfg, region1, region2)
    return est


def ratio_ccdf_estimates(xs, spec: RatioSpec, cfg: TrialConfig,
                         region1: DiskRegion | None = None,
                         region2: DiskRegion | None = None) -> list[Estimate]:
    """Empirical CCDF at several points from one shared set of trials.

    As in :func:`ratio_samples`, no trial is redrawn.
    """
    kernel = _ratio_kernel(spec, cfg, (region1, region2))
    xs = [float(x) for x in xs]
    if any(x < 0.0 for x in xs):
        raise ParameterDomainError("ccdf points must be nonnegative")
    counts = _exceedances(cfg, kernel, xs)
    return [bernoulli_estimate(c, cfg.trials, cfg.seed) for c in counts]


def ratio_laplace_estimate(s: float, spec: RatioSpec, cfg: TrialConfig) -> Estimate:
    """Monte Carlo estimate of E[exp(-s * ratio)]."""
    if not s > 0.0:
        raise ParameterDomainError(f"s must be positive, got {s}")
    return mean_estimate(np.exp(-s * ratio_samples(spec, cfg)), cfg.seed)


def _coupled_shot_chunk(density, alpha, region, rng, n_trials):
    """Shot-noise sums on a disk and on its doubling, from one realization.

    Points are drawn on the doubled disk; restricting them to the base disk
    is an exact realization of the process there, so the two sums differ
    only by the annulus contribution and the difference of the tail means.
    """
    big = region.doubled()
    _, idx, r = _disk_points(rng, density * big.area, big.radius, n_trials)
    inner = r <= region.radius
    vals = np.power(r, -alpha, out=r)
    s_big = np.bincount(idx, weights=vals, minlength=n_trials).astype(float, copy=False)
    # Annulus points weigh exactly 0, which leaves the sequential sums unchanged.
    vals *= inner
    s_base = np.bincount(idx, weights=vals, minlength=n_trials).astype(float, copy=False)
    s_big += tail_mean(density, alpha, big.radius)
    s_base += tail_mean(density, alpha, region.radius)
    return s_base, s_big


def window_doubling_probe(x: float, spec: RatioSpec, cfg: TrialConfig) -> tuple[Estimate, Estimate]:
    """Empirical ratio CCDF at ``x`` under the default windows and their doubling.

    Both estimates come from the same realizations (coupled), so their
    difference isolates the truncation effect of the window choice.  Both
    count every trial, and every denominator holds its positive tail mean.
    """
    reg1, reg2 = ratio_regions(spec, cfg)

    def chunk(rng, n):
        b1, g1 = _coupled_shot_chunk(spec.lambda1, spec.alpha, reg1, rng, n)
        b2, g2 = _coupled_shot_chunk(spec.lambda2, spec.alpha, reg2, rng, n)
        return int((b1 > x * b2).sum()), int((g1 > x * g2).sum())

    base_succ, big_succ = run_counting_chunks(cfg.trials, cfg.seed, chunk, cfg.partitions)
    return (bernoulli_estimate(base_succ, cfg.trials, cfg.seed),
            bernoulli_estimate(big_succ, cfg.trials, cfg.seed))


# ---------------------------------------------------------------------------
# SIR trials
# ---------------------------------------------------------------------------

def aligned_regions(scenario: Scenario, k: int, cfg: TrialConfig):
    """Disk for the requested file's process and disk for the interferers."""
    lam = scenario.helper_density
    lam_k = float(scenario.profile.weights[k]) * lam
    return (default_region(lam_k, scenario.alpha, cfg.tail_tol),
            default_region(lam, scenario.alpha, cfg.tail_tol))


class _SirChunk(NamedTuple):
    """The geometry of one chunk of ``n`` SIR trials.

    Signal points (the requested file's) carry their trial ``sig_trial``,
    nondecreasing, and radius ``sig_r``.  The interferers are file-major:
    points ``ends[j]:ends[j + 1]`` belong to file ``j``, with cell key
    ``j * n + trial`` and radius ``r``; ``labels`` holds their trials where
    they were drawn as labels, and is ``None`` where counts were drawn per
    cell.
    """

    n: int
    sig_trial: np.ndarray
    sig_r: np.ndarray
    ends: np.ndarray
    key: np.ndarray
    labels: np.ndarray | None
    r: np.ndarray

    def interferer_trials(self) -> np.ndarray:
        """Every interferer's trial."""
        return self.key % self.n if self.labels is None else self.labels


class _Stratum:
    """The marked geometry of SIR trials whose request is file ``k``.

    The stratum's constants (file densities, expected counts, tail means,
    threshold) are set once.  Each chunk of ``n`` trials then draws the
    requested file's points per trial on the signal disk, and every other
    file's points by the marking theorem (Kingman, *Poisson Processes*,
    1993): one Poisson count of mean ``n * lambda_j * area`` per file ``j``
    (``lambda_k = 0``), each point with a uniform trial label and a uniform
    position on the interference disk.  So the random-number cost is one
    draw per point and per trial, not per (trial, file) cell.  Where the
    cells are crowded (``_CELL_COUNT_POINTS``), one Poisson count per cell
    is the cheaper exact draw of the same process.  Both SIR models are
    evaluated on this geometry.
    """

    def __init__(self, scenario: Scenario, k: int, sig_region: DiskRegion,
                 int_region: DiskRegion):
        alpha = scenario.alpha
        dens = decompose_densities(scenario.profile, scenario.helper_density)
        dens_int = dens.copy()
        dens_int[k] = 0.0
        self.alpha = alpha
        self.theta = float(scenario.thresholds[k])
        self.n_files = scenario.n_files
        self.sig_density = dens[k]
        self.sig_region = sig_region
        self.int_means = dens_int * int_region.area
        self.int_radius = int_region.radius
        self.count_cells = bool(self.int_means.sum() >= _CELL_COUNT_POINTS * self.n_files)
        self.tau_int = tail_mean(1.0, alpha, int_region.radius) * dens_int

    @property
    def tau_sig(self) -> float:
        """The requested file's tail mean beyond the signal disk."""
        return tail_mean(self.sig_density, self.alpha, self.sig_region.radius)

    def geometry(self, rng, n) -> _SirChunk:
        """The points of ``n`` trials."""
        _, sig_trial, sig_r = _disk_points(rng, self.sig_density * self.sig_region.area,
                                           self.sig_region.radius, n)
        if self.count_cells:
            # Counts over the (file, trial) grid: a point's cell index is its key.
            counts, key, r = _disk_points(rng, self.int_means[:, None], self.int_radius,
                                          (self.n_files, n))
            counts = counts.sum(axis=1)
            labels = None
        else:
            counts, key, r = _disk_points(rng, n * self.int_means, self.int_radius, self.n_files)
            labels = rng.integers(0, n, size=r.size)
            key *= n
            key += labels
        return _SirChunk(n, sig_trial, sig_r, np.concatenate(([0], np.cumsum(counts))),
                         key, labels, r)


class _AlignedModel:
    """Aligned-transmission SIR trials on a stratum's geometry.

    mode "exponential": unit-mean exponential fading per file on plain
    path-loss sums G_j.  Given the geometry the fading integrates out
    (Laplace transform of Rayleigh fading; Haenggi, *Stochastic Geometry
    for Wireless Networks*, 2012, ch. 5): P(SIR > theta) =
    prod_j 1 / (1 + theta * G_j / G_0), which is what :meth:`success` returns.
    mode "complex": per-point circularly symmetric complex fading; signal
    and per-file interference powers are squared magnitudes of coherent
    sums, and :meth:`success` is the 0/1 indicator of SIR > theta.
    Per-(trial, file) sums are formed one block of files at a time, which
    bounds memory in N.  Both methods are ``(rng, chunk) -> values``.
    """

    def __init__(self, stratum: _Stratum, mode: str):
        if mode not in ("exponential", "complex"):
            raise ParameterDomainError(f"unknown mode {mode!r}")
        self.stratum = stratum
        self.mode = mode

    def blocks(self, chunk: _SirChunk, weights: np.ndarray):
        """``(files, sums)`` per block of files, in file order.

        ``sums[i, t]`` adds up the ``weights`` of trial ``t``'s points of
        file ``files[i]``; a block holds at most about ``_BLOCK_CELLS`` cells.
        """
        n, n_files = chunk.n, self.stratum.n_files
        step = max(1, _BLOCK_CELLS // n)
        for f0 in range(0, n_files, step):
            f1 = min(f0 + step, n_files)
            lo, hi = chunk.ends[f0], chunk.ends[f1]
            cells = chunk.key[lo:hi]
            if f0:  # the first block, often the only one, needs no shifted copy
                cells = cells - f0 * n
            sums = np.bincount(cells, weights=weights[lo:hi], minlength=(f1 - f0) * n)
            # bincount of no points is an integer array; the callers add floats in place.
            yield slice(f0, f1), sums.astype(float, copy=False).reshape(f1 - f0, n)

    def signal_gain(self, chunk: _SirChunk) -> np.ndarray:
        """G_0 per trial: the requested file's path-loss sum plus its tail mean."""
        return (np.bincount(chunk.sig_trial, weights=chunk.sig_r ** (-self.stratum.alpha),
                            minlength=chunk.n) + self.stratum.tau_sig)

    def success(self, rng, chunk: _SirChunk):
        """Per-trial values whose mean estimates P(SIR > theta)."""
        s, n = self.stratum, chunk.n
        if self.mode == "complex":
            return (self.sir(rng, chunk) > s.theta).astype(float)
        if s.n_files == 1:
            return np.ones(n)
        g0 = self.signal_gain(chunk)
        # A requested file of zero popularity has G_0 = 0, signal and tail: SIR 0.
        live = g0 > 0.0
        scale = s.theta / np.where(live, g0, 1.0)
        log_q = np.zeros(n)
        for files, gains in self.blocks(chunk, chunk.r ** (-s.alpha)):
            gains += s.tau_int[files, None]
            gains *= scale
            log_q += np.log1p(gains, out=gains).sum(axis=0)
        return np.where(live, np.exp(-log_q), 0.0)

    def sir(self, rng, chunk: _SirChunk):
        """SIR samples, one per trial.

        Complex mode turns ``chunk.r`` into amplitudes in place, so a model
        that reads the radii runs on the chunk first.
        """
        s, n = self.stratum, chunk.n
        if s.n_files == 1:
            return np.full(n, np.inf)
        interference = np.zeros(n)
        if self.mode == "exponential":
            s0 = rng.exponential(size=n) * self.signal_gain(chunk)
            for files, gains in self.blocks(chunk, chunk.r ** (-s.alpha)):
                gains += s.tau_int[files, None]
                interference += (rng.exponential(size=gains.shape) * gains).sum(axis=0)
        else:
            amp_sig = chunk.sig_r ** (-s.alpha / 2.0)
            z_sig = (np.bincount(chunk.sig_trial,
                                 weights=amp_sig * rng.standard_normal(amp_sig.size), minlength=n)
                     + 1j * np.bincount(chunk.sig_trial,
                                        weights=amp_sig * rng.standard_normal(amp_sig.size),
                                        minlength=n)) / math.sqrt(2.0)
            z_sig += math.sqrt(s.tau_sig / 2.0) * (rng.standard_normal(n)
                                                   + 1j * rng.standard_normal(n))
            s0 = np.abs(z_sig) ** 2
            fade = rng.standard_normal((2, chunk.r.size))
            # The radii are not read again: they become the amplitudes in place.
            fade *= np.power(chunk.r, -s.alpha / 2.0, out=chunk.r)
            for (files, re), (_, im) in zip(self.blocks(chunk, fade[0]),
                                            self.blocks(chunk, fade[1])):
                # Tail terms in (file, trial, part) order: the same draws for any blocking.
                tail = (np.sqrt(s.tau_int[files, None, None] / 2.0)
                        * rng.standard_normal(re.shape + (2,)))
                re = re / math.sqrt(2.0) + tail[..., 0]
                im = im / math.sqrt(2.0) + tail[..., 1]
                interference += (re**2 + im**2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return s0 / interference


def _group_heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a grouped ``keys`` array that start a new run."""
    heads = np.empty(keys.size, dtype=bool)
    heads[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


def _nearest_positions(trial_idx: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Position of each trial's nearest point; exactly one per trial present.

    ``trial_idx`` maps points to trials and must be nondecreasing, as
    ``_disk_points`` makes it; the result indexes the flat point arrays in
    trial order.  Trials without points simply do not appear, so no points
    give an empty result.  Of several points at a trial's smallest radius,
    the first wins.  One linear pass: a grouped minimum per run of equal
    ``trial_idx``, no sort.
    """
    starts = np.flatnonzero(_group_heads(trial_idx))
    nearest = np.minimum.reduceat(radii, starts)
    at_min = np.flatnonzero(radii == np.repeat(nearest, np.diff(starts, append=radii.size)))
    return at_min[_group_heads(trial_idx[at_min])]


def _serving(s: _Stratum, rng, chunk: _SirChunk):
    """``(serving, served, r_s, tails)`` of the trials of ``chunk``.

    ``serving`` holds the position of every served trial's nearest signal
    point and ``served`` their trials; ``r_s`` is every trial's serving
    distance, and ``tails`` the unfaded tail means its interference adds.  A
    trial with no signal point on the disk of radius R is served by the
    nearest point beyond it, which lies at sqrt(R**2 + E / (pi lambda_k))
    with E ~ Exp(1) (Haenggi, IEEE Trans. IT 51, 2005); the requested file's
    tail is then taken beyond that point.  Only such trials draw from
    ``rng``, so ``tails`` is a scalar and ``rng`` untouched when every trial
    is served within the disk.
    """
    serving = _nearest_positions(chunk.sig_trial, chunk.sig_r)
    served = chunk.sig_trial[serving]
    tau_int = s.tau_int.sum()
    if served.size == chunk.n:
        return serving, served, chunk.sig_r[serving], s.tau_sig + tau_int
    empty = np.ones(chunk.n, dtype=bool)
    empty[served] = False
    r_s = np.empty(chunk.n)
    r_s[served] = chunk.sig_r[serving]
    beyond = rng.exponential(size=chunk.n - served.size) / (math.pi * s.sig_density)
    r_s[empty] = np.sqrt(s.sig_region.radius ** 2 + beyond)
    tails = np.full(chunk.n, s.tau_sig)
    tails[empty] = tail_mean(s.sig_density, s.alpha, r_s[empty])
    return serving, served, r_s, tails + tau_int


class _NearestHelperModel:
    """Nearest-helper SIR trials (no alignment) on a stratum's geometry.

    The serving helper is the nearest point of the requested file's
    process, found beyond the signal disk where the disk is empty
    (:func:`_serving`); every other point, of the requested file or of the
    interferers, interferes with its own unit-mean exponential fade, and the
    tail means add unfaded.  A requested file of zero popularity has no
    helper anywhere: SIR 0.  Both methods are ``(rng, chunk) -> values``.
    """

    def __init__(self, stratum: _Stratum):
        self.stratum = stratum

    def success(self, rng, chunk: _SirChunk):
        """Per-trial P(SIR > theta) given the geometry, the fades integrated out.

        With ``x = theta * r_s**alpha`` for the server at ``r_s``, a point of
        path gain ``g`` passes with E[exp(-x h g)] = 1 / (1 + x g), so a
        trial's value is exp(-x * tails) * prod_{i != server} 1 / (1 + x g_i).
        """
        s, n = self.stratum, chunk.n
        if not s.sig_density:
            return np.zeros(n)
        serving, _, r_s, tails = _serving(s, rng, chunk)

        def log_terms(trial, r):
            # log(1 + x g) = log1p(theta * (r_s / r)**alpha), formed in one buffer.
            t = r_s[trial]
            t /= r
            np.power(t, s.alpha, out=t)
            t *= s.theta
            return np.log1p(t, out=t)

        log_q = s.theta * r_s ** s.alpha * tails
        terms = log_terms(chunk.sig_trial, chunk.sig_r)
        terms[serving] = 0.0  # the server does not interfere with itself
        log_q += np.bincount(chunk.sig_trial, weights=terms, minlength=n)
        del terms
        trial = chunk.interferer_trials()
        log_q += np.bincount(trial, weights=log_terms(trial, chunk.r), minlength=n)
        return np.exp(-log_q)

    def sir(self, rng, chunk: _SirChunk):
        """SIR samples, one exponential fade per point."""
        s, n = self.stratum, chunk.n
        if not s.sig_density:
            return np.zeros(n)
        serving, served, r_s, tails = _serving(s, rng, chunk)
        sig_power = rng.exponential(size=chunk.sig_r.size) * chunk.sig_r ** (-s.alpha)
        int_power = rng.exponential(size=chunk.r.size) * chunk.r ** (-s.alpha)
        if served.size == n:
            signal = np.zeros(n)
        else:  # servers beyond the disk fade too; theirs are drawn last
            signal = rng.exponential(size=n) * r_s ** (-s.alpha)
        signal[served] = sig_power[serving]
        sig_power[serving] = 0.0
        interference = (np.bincount(chunk.sig_trial, weights=sig_power, minlength=n)
                        + np.bincount(chunk.interferer_trials(), weights=int_power, minlength=n)
                        + tails)
        return signal / interference


def _stratum(scenario: Scenario, k: int, cfg: TrialConfig, regions=(None, None)) -> _Stratum:
    """The stratum of request ``k``; windows left ``None`` are the defaults of
    :func:`aligned_regions`."""
    _check_file_index(scenario.n_files, k)
    regions = _fill_regions(regions, lambda: aligned_regions(scenario, k, cfg))
    return _Stratum(scenario, k, *regions)


def _on_geometry(stratum: _Stratum, method):
    """``(rng, n) -> values``: the values of ``method(rng, chunk)`` on ``n`` fresh trials."""
    return lambda rng, n: method(rng, stratum.geometry(rng, n))


def _sir_moments(cfg: TrialConfig, stratum: _Stratum, methods, stream_offset: int = 0):
    """The per-trial values of ``methods``, run in order on one geometry per chunk.

    They are folded into their :class:`Moments` for one method, into the
    :class:`CoMoments` of the first (``x``) and second (``y``) for two.
    """

    def chunk(rng, n):
        geometry = stratum.geometry(rng, n)
        values = [method(rng, geometry) for method in methods]
        return (Moments.of(values[0]) if len(values) == 1 else CoMoments.of(*values),)

    (record,) = run_counting_chunks(cfg.trials, cfg.seed, chunk, cfg.partitions,
                                    stream_offset=stream_offset)
    return record


def sir_samples_aligned(scenario: Scenario, k: int, cfg: TrialConfig,
                        mode: str = "exponential",
                        signal_region: DiskRegion | None = None,
                        interference_region: DiskRegion | None = None) -> np.ndarray:
    """Per-trial SIR samples under aligned transmission, request fixed to ``k``."""
    stratum = _stratum(scenario, k, cfg, (signal_region, interference_region))
    return gather_chunked_samples(cfg.trials, cfg.seed,
                                  _on_geometry(stratum, _AlignedModel(stratum, mode).sir))


def simulate_sir_aligned(scenario: Scenario, k: int, cfg: TrialConfig,
                         mode: str = "exponential",
                         signal_region: DiskRegion | None = None,
                         interference_region: DiskRegion | None = None) -> Estimate:
    """P(SIR > theta_k) under aligned transmission, request fixed to file ``k``.

    The estimate is the mean of per-trial values: conditional success
    probabilities given the geometry in exponential mode, success
    indicators in complex mode.
    """
    stratum = _stratum(scenario, k, cfg, (signal_region, interference_region))
    return _sir_moments(cfg, stratum, (_AlignedModel(stratum, mode).success,)).estimate(cfg.seed)


def sir_samples_baseline(scenario: Scenario, k: int, cfg: TrialConfig,
                         signal_region: DiskRegion | None = None,
                         interference_region: DiskRegion | None = None) -> np.ndarray:
    """Per-trial nearest-helper SIR samples, request fixed to file ``k``.

    One exponential fade is drawn per point of the same geometry that
    :func:`simulate_sir_baseline` averages over.
    """
    stratum = _stratum(scenario, k, cfg, (signal_region, interference_region))
    return gather_chunked_samples(cfg.trials, cfg.seed,
                                  _on_geometry(stratum, _NearestHelperModel(stratum).sir))


def simulate_sir_baseline(scenario: Scenario, k: int, cfg: TrialConfig,
                          signal_region: DiskRegion | None = None,
                          interference_region: DiskRegion | None = None) -> Estimate:
    """P(SIR > theta_k) for nearest-helper service without alignment.

    The estimate is the mean of per-trial success probabilities given the
    geometry.  A trial whose signal disk is empty is served by the nearest
    helper beyond it, so no trial is redrawn.
    """
    stratum = _stratum(scenario, k, cfg, (signal_region, interference_region))
    return _sir_moments(cfg, stratum, (_NearestHelperModel(stratum).success,)).estimate(cfg.seed)


class Totals(NamedTuple):
    """Aligned and nearest-helper delivery probabilities on common trials, and their ratio."""

    aligned: Estimate
    baseline: Estimate
    gain: Estimate


def _request_counts(scenario: Scenario, cfg: TrialConfig) -> np.ndarray:
    """Multinomial split of the trials over the files, by popularity."""
    rng = substream(cfg.seed, 0)
    return rng.multinomial(cfg.trials, scenario.profile.weights)


def _simulate_total(scenario: Scenario, cfg: TrialConfig, methods, finish, return_strata):
    """Popularity-mixed success probabilities over randomized requests.

    Requests are split over the files by one multinomial draw (equivalent to
    drawing them one by one).  File ``k``'s trials then run ``methods(stratum)``
    by :func:`_sir_moments` on their own chunk grid, at a disjoint stream
    offset.  The strata's records add up in file order, and ``finish``
    turns one into the result.
    """
    counts = _request_counts(scenario, cfg)
    runs = {}
    for k, t_k in enumerate(counts):
        if t_k:
            sub = replace(cfg, trials=int(t_k))
            stratum = _stratum(scenario, k, sub)
            runs[k] = _sir_moments(sub, stratum, methods(stratum), (k + 1) * _STREAM_STRIDE)
    total = finish(sum(runs.values()))
    if return_strata:
        return total, {k: finish(record) for k, record in runs.items()}
    return total


def simulate_total_aligned(scenario: Scenario, cfg: TrialConfig,
                           mode: str = "exponential", return_strata: bool = False):
    """Total delivery probability under aligned transmission, requests randomized.

    With ``return_strata`` the per-file conditional estimates (at their
    random request counts) are returned alongside the total.  Every
    estimate is a mean of per-trial values, as in :func:`simulate_sir_aligned`.
    """
    return _simulate_total(scenario, cfg, lambda s: (_AlignedModel(s, mode).success,),
                           lambda record: record.estimate(cfg.seed), return_strata)


def simulate_total_baseline(scenario: Scenario, cfg: TrialConfig,
                            return_strata: bool = False):
    """Total delivery probability for nearest-helper service, requests randomized."""
    return _simulate_total(scenario, cfg, lambda s: (_NearestHelperModel(s).success,),
                           lambda record: record.estimate(cfg.seed), return_strata)


def simulate_totals(scenario: Scenario, cfg: TrialConfig,
                    mode: str = "exponential", return_strata: bool = False):
    """Both totals on common trials, and the alignment gain: a :class:`Totals`.

    Every trial's geometry is drawn once and both models are evaluated on
    it (common random numbers), so the gain's delta-method standard error
    includes their covariance.  ``aligned`` and ``baseline`` have the bits
    of :func:`simulate_total_aligned` and :func:`simulate_total_baseline`
    at the same arguments.  For the nearest-helper half that always holds:
    it is evaluated first, and its values draw nothing but the serving
    distances of trials whose signal disk is empty.  The aligned half keeps
    its bits whenever no trial is served from beyond its disk, since complex
    mode's fades follow those draws in the stream; at the default windows
    that has probability about e^-113.  With ``return_strata`` the per-file
    :class:`Totals` are returned alongside.
    """

    def finish(record):
        return Totals(record.y.estimate(cfg.seed), record.x.estimate(cfg.seed),
                      record.ratio(cfg.seed))

    return _simulate_total(scenario, cfg, lambda s: (_NearestHelperModel(s).success,
                                                     _AlignedModel(s, mode).success),
                           finish, return_strata)
