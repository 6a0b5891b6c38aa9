"""Monte Carlo oracle: planar Poisson sampling, shot noise, and SIR trials.

The infinite plane is approximated by a disk around the origin.  The
analytic mean of the beyond-disk contribution is added back to every
truncated sum, so what is lost to the window is only the zero-mean
fluctuation of the far tail.  For coherent (complex-amplitude) sums the
compensation enters as an independent complex Gaussian of matching
variance.  A shot-noise sum therefore always holds its positive tail mean,
and no ratio denominator is ever zero.

The disk radius for a process of density ``lam`` is therefore sized by that
fluctuation, in the process's own length unit ``1 / sqrt(lam)``: scaling
the plane by ``sqrt(lam)`` maps it onto a process of unit density and
multiplies every shot noise by ``lam**(alpha/2)`` (Haenggi, *Stochastic
Geometry for Wireless Networks*, 2012), so no ratio, SIR or success
probability depends on ``lam``.  ``R * sqrt(lam)`` is the larger of:

* the radius at which the standard deviation of the shot noise beyond the
  disk, ``sqrt(pi lam / (alpha - 1)) * R**(1-alpha)`` by Campbell's theorem
  (ibid., ch. 4), is ``tail_tol`` times the shot noise's stable scale
  ``(pi lam Gamma(1 - 2/alpha))**(alpha/2)``;
* ``COVERAGE_FACTOR``, so the disk expects at least ``pi * COVERAGE_FACTOR**2``
  points and the near field of the process is resolved.

Every estimate is thus the same at any density, up to rounding.

A window whose chunk of trials would hold more than ``MAX_CHUNK_POINTS``
expected points raises :class:`~snratio.errors.ParameterDomainError` before
anything is drawn.  Doubling the disk radius must leave every reported
estimate within one combined standard error; the validation suite checks
exactly that.

Summation order: the shot-noise and ratio kernels store each chunk's
points trial by trial and sum every trial's segment by ``np.add.reduceat``
(:func:`_trial_sums`): its first point plus numpy's pairwise sum of the
rest.  The SIR kernels, whose interferers need not be grouped by trial, add
each block's points in point order with ``np.bincount``; a trial lies in
one block, so its sums never span two.

SIR trials: a chunk of trials is drawn and evaluated one block of trials at
a time (``_Stratum.values``), each block expecting at most
``_BLOCK_POINTS`` points and holding at most ``_BLOCK_CELLS`` (file, trial)
cells, or one trial, so a chunk's memory is bounded in both the points per
trial and the file count N.  Both models, aligned transmission and nearest-helper
service, are evaluated on one marked geometry per block.  It stores every
point as its path gain ``g = (r**2)**(-alpha/2)``, one power of its squared
radius and no square root, which the aligned model sums and the
nearest-helper model reads as ``log1p(x * g)``.  The requested file's
process is drawn nearest first: its nearest point, inside the signal disk
or beyond it, then its other points on the disk.  So every trial has a
serving helper and no SIR trial is ever redrawn.  Each trial contributes
its success probability given the geometry, with the fading integrated
out; complex mode keeps per-point fading and a 0/1 indicator for the
aligned model.  :func:`simulate_totals` runs both models on common trials,
so the alignment gain's standard error includes their covariance.

Reproducibility: all trial loops run over the fixed chunk grid of
:mod:`snratio.mc`, with one keyed SFC64 substream per chunk (see
:func:`snratio.mc.substream`); an SIR chunk of several blocks draws its
fades from one child of it (:meth:`_Stratum.values`).  Per-chunk aggregates (integer exceedance counts for the ratio sampler, the
:class:`~snratio.mc.Moments` of per-trial SIR values, or their
:class:`~snratio.mc.CoMoments` when both SIR models run together) are
merged in chunk order, so estimates are bit-identical under any
partitioning.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .delivery import Scenario, _check_file_index
from .errors import ParameterDomainError
from .mc import (
    CHUNK_TRIALS,
    CoMoments,
    Estimate,
    Moments,
    bernoulli_estimate,
    check_integer,
    gather_chunked_samples,
    run_counting_chunks,
    substream,
)
from .popularity import decompose_densities
from .shotnoise import RatioSpec

#: Disk radii keep the expected in-window point count above
#: ``pi * COVERAGE_FACTOR ** 2`` (about 113 points).
COVERAGE_FACTOR = 6.0

#: Expected points in one chunk of trials, summed over the processes drawn
#: together, above which a window cannot be held: the shot-noise and ratio
#: kernels draw a whole chunk at once, and every point takes several 8-byte
#: entries, so this is about 1 GB of working arrays.  The SIR kernels hold one
#: block of a chunk at a time; for them the cap bounds the work per chunk.
MAX_CHUNK_POINTS = 1 << 24

#: Stream-index stride separating the chunk grids of per-file sub-runs.
_STREAM_STRIDE = 1_000_000

#: Expected points per block of SIR trials.  A block's per-point arrays (a
#: few 8-byte entries each) then stay about cache-sized and are reused from
#: block to block, rather than taken fresh from the system per chunk.
_BLOCK_POINTS = 1 << 16

#: Cells per block of SIR trials in the dense (file x trial) sums of the
#: aligned model: a block's memory stays bounded as the file count N grows.
_BLOCK_CELLS = 1 << 19


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

    ``tail_tol`` bounds the standard deviation of the shot noise beyond each
    default window, as a fraction of the shot noise's stable scale (see
    :func:`default_region`).  Its default here is also
    :class:`~snratio.experiments.ExperimentConfig`'s.

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
    tail_tol: float = 1e-2
    partitions: int = 1

    def __post_init__(self):
        check_integer("trials", self.trials, 1)
        check_integer("seed", self.seed, 0)
        if not self.tail_tol > 0.0:
            raise ParameterDomainError(f"tail_tol must be positive, got {self.tail_tol}")
        check_integer("partitions", self.partitions, 1)


def tail_mean(density: float, alpha: float, radius: float) -> float:
    """Expected shot-noise contribution of the process beyond ``radius``."""
    return 2.0 * math.pi * density * radius ** (2.0 - alpha) / (alpha - 2.0)


def _check_process(density: float, alpha: float) -> None:
    """Raise :class:`ParameterDomainError` unless the shot noise of a density
    ``density`` process with path-loss exponent ``alpha`` is finite."""
    if not 0.0 < density < math.inf:
        raise ParameterDomainError(f"density must be positive and finite, got {density}")
    if not 2.0 < alpha < math.inf:
        raise ParameterDomainError(f"alpha must exceed 2 and be finite, got {alpha}")


def default_region(density: float, alpha: float, tail_tol: float) -> DiskRegion:
    """Default disk: radius ``max(rho, COVERAGE_FACTOR) / sqrt(density)``.

    ``rho`` is where the tail spread reaches ``tail_tol`` of the stable
    scale: the tail's mean is added back to every truncated sum, so only its
    fluctuation, of variance ``pi * density * R**(2 - 2 alpha) / (alpha - 1)``,
    is lost to the window, and at ``R = rho / sqrt(density)`` its standard
    deviation is ``tail_tol * (pi * density * Gamma(1 - 2/alpha))**(alpha/2)``.
    """
    _check_process(density, alpha)
    scale = (math.pi * math.gamma(1.0 - 2.0 / alpha)) ** (alpha / 2.0)
    rho = (math.sqrt(math.pi / (alpha - 1.0)) / (tail_tol * scale)) ** (1.0 / (alpha - 1.0))
    return DiskRegion(max(rho, COVERAGE_FACTOR) / math.sqrt(density))


def _check_chunk_points(trials: int, windows) -> None:
    """Raise :class:`ParameterDomainError` if one chunk's expected points exceed
    ``MAX_CHUNK_POINTS``.

    ``windows`` holds the ``(density, region)`` of every process a trial
    draws; a run of ``trials`` draws them for up to ``CHUNK_TRIALS`` trials
    at once.
    """
    windows = tuple(windows)
    n = min(trials, CHUNK_TRIALS)
    count = n * sum(density * region.area for density, region in windows)
    if count > MAX_CHUNK_POINTS:
        radius = max(region.radius for _, region in windows)
        raise ParameterDomainError(
            f"window of radius {radius:.4g} expects {count:.4g} points per chunk of "
            f"{n} trials, more than the {MAX_CHUNK_POINTS} that can be held; "
            f"raise tail_tol or pass a smaller region")


def _disk_points(rng, mean, radius, size):
    """Poisson point counts per cell and the points' radii on a disk.

    ``mean`` (scalar, or broadcastable to ``size``) is the expected count per
    cell.  Returns ``(counts, r)``: the points are stored cell by cell in
    flat cell order, and ``r`` is uniform over the disk of ``radius``.
    """
    counts = rng.poisson(mean, size=size)
    r = rng.random(int(counts.sum()))
    np.sqrt(r, out=r)
    r *= radius
    return counts, r


def _trial_sums(values, counts) -> np.ndarray:
    """Per-trial sums of ``values`` stored contiguously by trial, ``counts[t]`` for trial ``t``.

    Each nonempty trial's sum is ``np.add.reduceat`` over its segment: its
    first value plus numpy's pairwise sum of the rest (eight accumulators
    over blocks of at most 128 values, split in halves above that).  An empty
    trial sums to 0.0, and the result is always a float array.
    """
    sums = np.zeros(counts.size)
    nonempty = counts > 0
    starts = np.cumsum(counts) - counts
    sums[nonempty] = np.add.reduceat(values, starts[nonempty])
    return sums


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
    """Vectorized shot-noise sums for ``n_trials`` trials, tail mean added.

    The points are summed per trial in the order of :func:`_trial_sums`.
    """
    counts, r = _disk_points(rng, density * region.area, region.radius, n_trials)
    s = _trial_sums(np.power(r, -alpha, out=r), counts)
    s += tail_mean(density, alpha, region.radius)
    return s


def shot_noise_samples(density: float, alpha: float, cfg: TrialConfig,
                       region: DiskRegion | None = None) -> np.ndarray:
    """Independent shot-noise samples, one per trial, in deterministic order."""
    _check_process(density, alpha)
    if region is None:
        region = default_region(density, alpha, cfg.tail_tol)
    _check_chunk_points(cfg.trials, ((density, region),))
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
    _check_chunk_points(cfg.trials, zip((spec.lambda1, spec.lambda2), regions))
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


def _ccdf_points(xs) -> list[float]:
    """``xs`` as floats, checked to be CCDF points: nonnegative, and not NaN.

    ``inf`` is allowed, since P(ratio > inf) = 0 exactly.
    """
    xs = [float(x) for x in xs]
    if not all(x >= 0.0 for x in xs):
        raise ParameterDomainError(f"ccdf points must be nonnegative, got {xs}")
    return xs


def ratio_ccdf_estimates(xs, spec: RatioSpec, cfg: TrialConfig,
                         region1: DiskRegion | None = None,
                         region2: DiskRegion | None = None) -> list[Estimate]:
    """Empirical CCDF at several points from one shared set of trials.

    As in :func:`ratio_samples`, no trial is redrawn.
    """
    xs = _ccdf_points(xs)
    counts = _exceedances(cfg, _ratio_kernel(spec, cfg, (region1, region2)), xs)
    return [bernoulli_estimate(c, cfg.trials, cfg.seed) for c in counts]


def ratio_laplace_estimate(s: float, spec: RatioSpec, cfg: TrialConfig) -> Estimate:
    """Monte Carlo estimate of E[exp(-s * ratio)]."""
    if not s > 0.0:
        raise ParameterDomainError(f"s must be positive, got {s}")
    return Moments.of(np.exp(-s * ratio_samples(spec, cfg))).estimate(cfg.seed)


def _coupled_shot_sums(density, alpha, region, drawn, counts, r):
    """Shot-noise sums on ``region`` and on its doubling, from one realization.

    ``counts`` and ``r`` are the process's points by trial on the disk
    ``drawn``, which contains the doubled disk.  Restricting them to a
    smaller disk is an exact realization of the process there, so the two
    sums differ only by the annulus contribution and the difference of the
    tail means.  Points beyond a disk weigh exactly 0 in its sums, which are
    taken in the order of :func:`_trial_sums`.
    """
    big = region.doubled()
    vals = np.power(r, -alpha)
    if big.radius < drawn.radius:
        vals *= r <= big.radius
    s_big = _trial_sums(vals, counts)
    vals *= r <= region.radius
    s_base = _trial_sums(vals, counts)
    s_big += tail_mean(density, alpha, big.radius)
    s_base += tail_mean(density, alpha, region.radius)
    return s_base, s_big


def window_doubling_probe(x: float, specs: Sequence[RatioSpec],
                          cfg: TrialConfig) -> list[tuple[Estimate, Estimate]]:
    """Empirical ratio CCDF at ``x`` under the default windows and their doubling.

    ``specs`` is a nonempty sequence of :class:`RatioSpec` sharing
    ``lambda1`` and ``lambda2``; the result holds one ``(base, doubled)``
    pair per spec.  Both estimates of a pair come from the same realizations
    (coupled), so their difference isolates the truncation effect of the
    window choice.  Every spec reads the same points too: each process is
    drawn once per chunk, on the largest doubled window among the specs, and
    each spec sums its points within its own windows, in the order of
    :func:`_trial_sums`, and adds its own tail means.  Where the specs'
    windows agree, a pair has the bits of the same spec probed alone.  Both
    estimates count every trial, and every denominator holds its positive
    tail mean.
    """
    (x,) = _ccdf_points([x])
    specs = tuple(specs)
    if not specs:
        raise ParameterDomainError("window_doubling_probe needs at least one spec")
    lam1, lam2 = specs[0].lambda1, specs[0].lambda2
    if any((spec.lambda1, spec.lambda2) != (lam1, lam2) for spec in specs):
        raise ParameterDomainError("the specs of one window_doubling_probe must share "
                                   "lambda1 and lambda2")
    regions = [ratio_regions(spec, cfg) for spec in specs]
    drawn1, drawn2 = (max(regs, key=lambda reg: reg.radius).doubled()
                      for regs in zip(*regions))
    _check_chunk_points(cfg.trials, ((lam1, drawn1), (lam2, drawn2)))

    def chunk(rng, n):
        points1 = _disk_points(rng, lam1 * drawn1.area, drawn1.radius, n)
        points2 = _disk_points(rng, lam2 * drawn2.area, drawn2.radius, n)
        succ = []
        for spec, (reg1, reg2) in zip(specs, regions):
            b1, g1 = _coupled_shot_sums(lam1, spec.alpha, reg1, drawn1, *points1)
            b2, g2 = _coupled_shot_sums(lam2, spec.alpha, reg2, drawn2, *points2)
            succ += [int((b1 > x * b2).sum()), int((g1 > x * g2).sum())]
        return tuple(succ)

    succ = run_counting_chunks(cfg.trials, cfg.seed, chunk, cfg.partitions)
    ests = [bernoulli_estimate(c, cfg.trials, cfg.seed) for c in succ]
    return list(zip(ests[::2], ests[1::2]))


# ---------------------------------------------------------------------------
# SIR trials
# ---------------------------------------------------------------------------

def aligned_regions(scenario: Scenario, k: int, cfg: TrialConfig):
    """Disk for the requested file's process and disk for the interferers."""
    _check_file_index(scenario.n_files, k)
    lam = scenario.helper_density
    lam_k = float(scenario.profile.weights[k]) * lam
    return (default_region(lam_k, scenario.alpha, cfg.tail_tol),
            default_region(lam, scenario.alpha, cfg.tail_tol))


class _Interferers:
    """The constants of a scenario's helpers on one interference disk.

    Per file ``j``: its helper density ``densities[j]``, its expected points
    per trial on the disk ``means[j]``, and its tail mean beyond the disk
    ``tails[j]``.  They are built once per scenario and disk, and every
    request stratum reads them.
    """

    def __init__(self, scenario: Scenario, region: DiskRegion):
        self.scenario = scenario
        self.region = region
        self.densities = decompose_densities(scenario.profile, scenario.helper_density)
        self.means = self.densities * region.area
        self.tails = tail_mean(1.0, scenario.alpha, region.radius) * self.densities


class _SirChunk(NamedTuple):
    """The geometry of one block of ``n`` SIR trials, as path gains.

    Every point at distance r is stored as its path gain g = (r**2)**(-alpha/2),
    formed from its squared radius.  ``g1`` is every trial's gain from the
    requested file's nearest point (0 where that file has no helper), and
    ``sig_tail`` that file's tail mean beyond max(R, r_1) for the signal
    disk of radius R.  Its other points on the disk carry their trial
    ``sig_trial`` and gain ``sig_g``.  The interferers carry their trial
    ``labels``, cell key ``file * n + trial`` and gain ``g``.
    """

    n: int
    g1: np.ndarray
    sig_tail: np.ndarray
    sig_trial: np.ndarray
    sig_g: np.ndarray
    key: np.ndarray
    labels: np.ndarray
    g: np.ndarray


class _Stratum:
    """The marked geometry of SIR trials whose request is file ``k``.

    The stratum's constants (the requested file's density, the interferers'
    expected counts and tail means with file ``k``'s set to 0, the
    threshold, the block size) are set once, from the scenario's
    :class:`_Interferers`.  Each block of ``n`` trials then draws the
    requested file's process per trial nearest first: its nearest point at
    r_1 = sqrt(E / (pi lambda_k)), E ~ Exp(1), which is the law
    P(r_1 <= r) = 1 - exp(-lambda_k pi r**2) (Haenggi, IEEE Trans. IT 51,
    2005), then Poisson(lambda_k pi (R**2 - min(r_1, R)**2)) further points,
    uniform on the annulus (min(r_1, R), R] of the signal disk.  That is
    exact, since a Poisson process is independent over disjoint sets.  Every
    other file's points are drawn by the marking theorem (Kingman, *Poisson
    Processes*, 1993): one Poisson count of mean ``n * lambda_j * area`` per
    file ``j`` (``lambda_k = 0``), each point with a uniform trial label and a
    uniform position on the interference disk.  So the random-number cost is
    one draw per point and per trial, and one per file and block, not one per
    (trial, file) cell.  Both SIR models are evaluated on this geometry.
    """

    def __init__(self, interferers: _Interferers, k: int, sig_region: DiskRegion):
        scenario = interferers.scenario
        self.alpha = scenario.alpha
        self.theta = float(scenario.thresholds[k])
        self.n_files = scenario.n_files
        self.sig_density = interferers.densities[k]
        self.sig_region = sig_region
        self.int_region = interferers.region
        self.int_means = interferers.means.copy()
        self.int_means[k] = 0.0
        self.tau_int = interferers.tails.copy()
        self.tau_int[k] = 0.0
        self.tau_int_total = self.tau_int.sum()
        points = self.sig_density * sig_region.area + self.int_means.sum()
        self.block_trials = max(1, min(int(_BLOCK_POINTS // max(points, 1.0)),
                                       _BLOCK_CELLS // self.n_files))

    def geometry(self, rng, n) -> _SirChunk:
        """The points of ``n`` trials."""
        lam, alpha = self.sig_density, self.alpha
        # Squared radii throughout, so a trial whose r_1 is beyond the disk
        # has an annulus of area exactly 0, and a gain is one power.
        outer = self.sig_region.radius**2
        # lambda_k = 0: no point anywhere, so r_1 = inf and no further points.
        r1_sq = rng.exponential(size=n) / (math.pi * lam) if lam else np.full(n, np.inf)
        inner = np.minimum(r1_sq, outer)
        sig_trial = np.repeat(np.arange(n), rng.poisson(math.pi * lam * (outer - inner)))
        inner = inner[sig_trial]
        sig_g = rng.random(sig_trial.size)
        sig_g *= outer - inner
        sig_g += inner
        np.power(sig_g, -alpha / 2.0, out=sig_g)
        sig_tail = tail_mean(lam, alpha, np.sqrt(np.maximum(r1_sq, outer)))
        counts = rng.poisson(n * self.int_means)
        g = rng.random(int(counts.sum()))
        g *= self.int_region.radius**2
        np.power(g, -alpha / 2.0, out=g)
        labels = rng.integers(0, n, size=g.size)
        key = np.repeat(np.arange(self.n_files), counts)
        key *= n
        key += labels
        return _SirChunk(n, r1_sq ** (-alpha / 2.0), sig_tail, sig_trial, sig_g, key, labels, g)

    def values(self, rng, n, methods) -> np.ndarray:
        """The per-trial values of ``methods`` on ``n`` fresh trials, one row per method.

        The trials are drawn and evaluated one block of at most
        ``block_trials`` at a time, which bounds memory in the points per
        trial and in N.  Each block's geometry is drawn from ``rng``, and the
        methods, ``(rng, chunk) -> values``, run on it in order.  So ``n``
        trials that fit one block give ``method(rng, self.geometry(rng, n))``.
        Over several blocks the methods draw their fades from one child of
        ``rng``, spawned once, so that the geometry of a later block does
        not depend on which methods ran on the earlier ones.
        """
        out = np.empty((len(methods), n))
        fades = rng if n <= self.block_trials else rng.spawn(1)[0]
        for start in range(0, n, self.block_trials):
            chunk = self.geometry(rng, min(self.block_trials, n - start))
            for row, method in zip(out, methods):
                row[start:start + chunk.n] = method(fades, chunk)
        return out


class _AlignedModel:
    """Aligned-transmission SIR trials on a stratum's geometry.

    mode "exponential": unit-mean exponential fading per file on plain
    path-loss sums G_j.  Given the geometry the fading integrates out
    (Laplace transform of Rayleigh fading; Haenggi, *Stochastic Geometry
    for Wireless Networks*, 2012, ch. 5): P(SIR > theta) =
    prod_j 1 / (1 + theta * G_j / G_0), which is what :meth:`success` returns.
    mode "complex": per-point circularly symmetric complex fading of
    amplitude sqrt(g); signal and per-file interference powers are squared
    magnitudes of coherent sums, and :meth:`success` is the 0/1 indicator
    of SIR > theta.  Complex mode draws a Gaussian per (file, trial) cell,
    so its cost grows with N; it is the oracle for exponential mode's
    fading integral.  Per-(file, trial) sums are formed for one block of
    trials at once.  Both methods are ``(rng, chunk) -> values``.
    """

    def __init__(self, stratum: _Stratum, mode: str):
        if mode not in ("exponential", "complex"):
            raise ParameterDomainError(f"unknown mode {mode!r}")
        self.stratum = stratum
        self.mode = mode

    def cells(self, chunk: _SirChunk, weights: np.ndarray) -> np.ndarray:
        """``sums[j, t]``: the ``weights`` of trial ``t``'s points of file ``j``, summed."""
        sums = np.bincount(chunk.key, weights=weights, minlength=self.stratum.n_files * chunk.n)
        # bincount of no points is an integer array; the callers add floats in place.
        return sums.astype(float, copy=False).reshape(-1, chunk.n)

    def signal_gain(self, chunk: _SirChunk) -> np.ndarray:
        """G_0 per trial: the requested file's path-loss sum and its tail mean."""
        return (np.bincount(chunk.sig_trial, weights=chunk.sig_g, minlength=chunk.n)
                + chunk.g1 + chunk.sig_tail)

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
        gains = self.cells(chunk, chunk.g)
        gains += s.tau_int[:, None]
        gains *= s.theta / np.where(live, g0, 1.0)
        log_q = np.log1p(gains, out=gains).sum(axis=0)
        return np.where(live, np.exp(-log_q), 0.0)

    def sir(self, rng, chunk: _SirChunk):
        """SIR samples, one per trial."""
        s, n = self.stratum, chunk.n
        if s.n_files == 1:
            return np.full(n, np.inf)
        if self.mode == "exponential":
            s0 = rng.exponential(size=n) * self.signal_gain(chunk)
            gains = self.cells(chunk, chunk.g)
            gains += s.tau_int[:, None]
            interference = (rng.exponential(size=gains.shape) * gains).sum(axis=0)
        else:
            amp_sig = np.sqrt(chunk.sig_g)
            z_sig = (np.bincount(chunk.sig_trial,
                                 weights=amp_sig * rng.standard_normal(amp_sig.size), minlength=n)
                     + 1j * np.bincount(chunk.sig_trial,
                                        weights=amp_sig * rng.standard_normal(amp_sig.size),
                                        minlength=n)) / math.sqrt(2.0)
            # The nearest point's faded amplitude and the tail's Gaussian are
            # independent circular Gaussians: one draw of their summed power.
            near = np.sqrt((chunk.g1 + chunk.sig_tail) / 2.0)
            z_sig += near * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            s0 = np.abs(z_sig) ** 2
            fade = rng.standard_normal((2, chunk.g.size))
            fade *= np.sqrt(chunk.g)
            # Tail terms in (file, trial, part) order.
            tail = np.sqrt(s.tau_int[:, None, None] / 2.0) * rng.standard_normal((s.n_files, n, 2))
            re = self.cells(chunk, fade[0]) / math.sqrt(2.0) + tail[..., 0]
            im = self.cells(chunk, fade[1]) / math.sqrt(2.0) + tail[..., 1]
            interference = (re**2 + im**2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return s0 / interference


class _NearestHelperModel:
    """Nearest-helper SIR trials (no alignment) on a stratum's geometry.

    The serving helper is the nearest point of the requested file's
    process, at r_1; the stratum draws it first, inside the signal disk or
    beyond it, so every trial has one.  Every other point, of the
    requested file or of the interferers, interferes with its own unit-mean
    exponential fade, and the tail means add unfaded.  A requested file of
    zero popularity has no helper anywhere (gain ``g1 = 0``): success and
    SIR 0.  Both methods are ``(rng, chunk) -> values``; :meth:`success`
    draws nothing.
    """

    def __init__(self, stratum: _Stratum):
        self.stratum = stratum

    def success(self, rng, chunk: _SirChunk):
        """Per-trial P(SIR > theta) given the geometry, the fades integrated out.

        With ``x = theta * r1**alpha = theta / g1`` for the server at r_1, a
        point of path gain ``g`` passes with E[exp(-x h g)] = 1 / (1 + x g),
        so a trial's value is exp(-x * tails) * prod_{i != server} 1 / (1 + x g_i).
        """
        s, n = self.stratum, chunk.n
        with np.errstate(divide="ignore"):
            x = s.theta / chunk.g1
        log_q = x * (chunk.sig_tail + s.tau_int_total)
        for trial, g in ((chunk.sig_trial, chunk.sig_g), (chunk.labels, chunk.g)):
            t = x[trial]
            t *= g
            log_q += np.bincount(trial, weights=np.log1p(t, out=t), minlength=n)
        return np.exp(-log_q)

    def sir(self, rng, chunk: _SirChunk):
        """SIR samples, one exponential fade per point."""
        s, n = self.stratum, chunk.n
        signal = rng.exponential(size=n) * chunk.g1
        sig_power = rng.exponential(size=chunk.sig_g.size) * chunk.sig_g
        int_power = rng.exponential(size=chunk.g.size) * chunk.g
        interference = (np.bincount(chunk.sig_trial, weights=sig_power, minlength=n)
                        + np.bincount(chunk.labels, weights=int_power, minlength=n)
                        + chunk.sig_tail + s.tau_int_total)
        return signal / interference


def _sir_regions(scenario: Scenario, k: int, cfg: TrialConfig, regions=(None, None)):
    """The signal and interference disks of request ``k``, checked to fit a chunk.

    Windows left ``None`` are the defaults of :func:`aligned_regions`.
    """
    _check_file_index(scenario.n_files, k)
    regions = _fill_regions(regions, lambda: aligned_regions(scenario, k, cfg))
    lam = scenario.helper_density
    lam_k = float(scenario.profile.weights[k]) * lam
    _check_chunk_points(cfg.trials, zip((lam_k, lam - lam_k), regions))
    return regions


def _stratum(scenario: Scenario, k: int, cfg: TrialConfig, regions=(None, None)) -> _Stratum:
    """The stratum of request ``k`` on the windows of :func:`_sir_regions`."""
    sig_region, int_region = _sir_regions(scenario, k, cfg, regions)
    return _Stratum(_Interferers(scenario, int_region), k, sig_region)


def _on_geometry(stratum: _Stratum, method):
    """``(rng, n) -> values``: the values of ``method(rng, chunk)`` on ``n`` fresh trials."""
    return lambda rng, n: stratum.values(rng, n, (method,))[0]


def _sir_moments(cfg: TrialConfig, stratum: _Stratum, methods, stream_offset: int = 0):
    """The per-trial values of ``methods``, run in order on one geometry per block.

    They are folded into their :class:`Moments` for one method, into the
    :class:`CoMoments` of the first (``x``) and second (``y``) for two.
    """

    def chunk(rng, n):
        values = stratum.values(rng, n, methods)
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
    geometry.  Every trial's serving helper is drawn first, inside the signal
    disk or beyond it, so no trial is redrawn.
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
    turns one into the result.  Every stratum's windows are checked before
    the first one draws a point, and the interferers' constants are built
    once per interference disk, not once per stratum.
    """
    counts = _request_counts(scenario, cfg)
    subs = {k: replace(cfg, trials=int(t_k)) for k, t_k in enumerate(counts) if t_k}
    regions = {k: _sir_regions(scenario, k, sub) for k, sub in subs.items()}
    interferers = {region: _Interferers(scenario, region)
                   for region in {int_region for _, int_region in regions.values()}}
    runs = {}
    for k, sub in subs.items():
        sig_region, int_region = regions[k]
        stratum = _Stratum(interferers[int_region], k, sig_region)
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
    at the same arguments, in either mode: the nearest-helper half is
    evaluated first and draws nothing, so the aligned half reads the stream
    it reads alone, and the aligned half's fades never move a later block's
    geometry (:meth:`_Stratum.values`).  With ``return_strata`` the per-file :class:`Totals` are
    returned alongside.
    """

    def finish(record):
        return Totals(record.y.estimate(cfg.seed), record.x.estimate(cfg.seed),
                      record.ratio(cfg.seed))

    return _simulate_total(scenario, cfg, lambda s: (_NearestHelperModel(s).success,
                                                     _AlignedModel(s, mode).success),
                           finish, return_strata)
