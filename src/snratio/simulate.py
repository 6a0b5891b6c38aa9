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

Summation order: points stored trial by trial (the points of the
shot-noise and ratio kernels, and the requested file's points of an SIR
block) are summed over every trial's segment by ``np.add.reduceat``
(:func:`_trial_sums`): its first point plus numpy's pairwise sum of the
rest.  The SIR interferers carry random trial labels and are added in point
order with ``np.bincount``; a trial lies in one block, so its sums never
span two.  The aligned model's exponential-mode success multiplies each
trial's factors ``1 + c * G_j`` in file order (``np.multiply.reduce`` over
the files) and takes one reciprocal, with no logarithm per cell.

Points: a point uniform on a disk of radius R is drawn as its squared
radius, one uniform draw times R**2 (:func:`_disk_points`).  Its path gain
``g = (r**2)**(-alpha/2)`` is taken from that with no square root
(:func:`_path_gains`: at even alpha a reciprocal and products, no power),
and windows mask on squared radii.

SIR trials: every SIR estimate runs through one driver, :func:`_sir_run`,
on one geometry built by :func:`_sir_geometry`, whose windows left
``None`` each take their default.  Every trial carries its requested file,
and one geometry serves every request (:class:`_Geometry`).  A conditional
run is the request split with every trial on one file, over the chunk grid
at stream offset 0; a popularity-mixed total sorts the trials of one
multinomial split by file and runs them over one chunk grid at offset
``_TOTAL_STREAM``, with no per-file loop.  A chunk of trials is drawn and
evaluated one block of trials at a time (``_Geometry.values``), each block
expecting at most ``_BLOCK_POINTS`` points and holding at most
``_BLOCK_CELLS`` (file, trial) cells, or one trial, so a chunk's memory is
bounded in both the points per trial and the file count N.  Both models,
aligned transmission and nearest-helper service, are evaluated on one
marked geometry per block, which stores every point as its path gain: the
aligned model sums the gains, and the nearest-helper model reads them as
``log1p(x * g)``.  Each trial's requested file is drawn nearest first: its
nearest point, inside the signal disk or beyond it, then its other points
on the disk.  So every trial has a serving helper and no SIR trial is ever
redrawn.  The other files' points are thinned off the trials that request
them, which is exact for a Poisson process.  Each trial contributes its
success probability given the geometry, with the fading integrated out;
complex mode keeps per-point fading and a 0/1 indicator for the aligned
model.  :func:`simulate_totals` runs both models on common trials, so the
alignment gain's standard error includes their covariance.

Reproducibility: all trial loops run over the fixed chunk grid of
:mod:`snratio.mc`, with one keyed SFC64 substream per chunk (see
:func:`snratio.mc.substream`); an SIR chunk of several blocks draws its
fades from one child of it (:meth:`_Geometry.values`).  Per-chunk
aggregates (integer exceedance counts for the ratio sampler, the
:class:`~snratio.mc.Moments` of per-trial SIR values, or their
:class:`~snratio.mc.CoMoments` when both SIR models run together, and a
total's per-file records) are merged in chunk order, so estimates are
bit-identical under any partitioning.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
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
    chunk_start,
    gather_chunked_samples,
    run_counting_chunks,
    substream,
)
from .popularity import decompose_densities
from .shotnoise import RatioSpec, _check_process

#: Disk radii keep the expected in-window point count above
#: ``pi * COVERAGE_FACTOR ** 2`` (about 113 points).
COVERAGE_FACTOR = 6.0

#: Expected points in one chunk of trials, summed over the processes drawn
#: together, above which a window cannot be held: the shot-noise and ratio
#: kernels draw a whole chunk at once, and every point takes several 8-byte
#: entries, so this is about 1 GB of working arrays.  The SIR kernels hold one
#: block of a chunk at a time; for them the cap bounds the work per chunk.
MAX_CHUNK_POINTS = 1 << 24

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


def _window_factor(alpha: float, tail_tol: float) -> float:
    """``max(rho, COVERAGE_FACTOR)``: a default disk's radius times ``sqrt(density)``."""
    scale = (math.pi * math.gamma(1.0 - 2.0 / alpha)) ** (alpha / 2.0)
    rho = (math.sqrt(math.pi / (alpha - 1.0)) / (tail_tol * scale)) ** (1.0 / (alpha - 1.0))
    return max(rho, COVERAGE_FACTOR)


def default_region(density: float, alpha: float, tail_tol: float) -> DiskRegion:
    """Default disk: radius ``max(rho, COVERAGE_FACTOR) / sqrt(density)``.

    ``rho`` is where the tail spread reaches ``tail_tol`` of the stable
    scale: the tail's mean is added back to every truncated sum, so only its
    fluctuation, of variance ``pi * density * R**(2 - 2 alpha) / (alpha - 1)``,
    is lost to the window, and at ``R = rho / sqrt(density)`` its standard
    deviation is ``tail_tol * (pi * density * Gamma(1 - 2/alpha))**(alpha/2)``.
    """
    _check_process(density, alpha)
    return DiskRegion(_window_factor(alpha, tail_tol) / math.sqrt(density))


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


def _disk_points(rng, mean, radius, size=None):
    """Poisson point counts per cell and the points' squared radii on a disk.

    ``mean`` (scalar, or broadcastable to ``size``) is the expected count per
    cell.  Returns ``(counts, sq)``: the points are stored cell by cell in
    flat cell order, each uniform over the disk of ``radius``, so ``sq`` is
    one uniform draw times ``radius**2``, with no square root.
    """
    counts = rng.poisson(mean, size=size)
    sq = rng.random(int(counts.sum()))
    sq *= radius**2
    return counts, sq


def _path_gains(sq: np.ndarray, alpha: float) -> np.ndarray:
    """The path gains ``g = sq**(-alpha/2)`` of squared radii ``sq``, in place.

    Where ``alpha / 2`` is an integer m (alpha = 4, 6, ...), ``g`` is one
    reciprocal times itself m - 1 times, within about m ulps of the power
    and without a transcendental per point; every other alpha takes
    ``np.power``.  ``sq = inf`` gives 0 either way, and ``sq = 0`` inf.
    """
    m = alpha / 2.0
    if not m.is_integer():
        return np.power(sq, -m, out=sq)
    np.reciprocal(sq, out=sq)
    inv = sq.copy() if m > 2 else sq
    for _ in range(int(m) - 1):
        sq *= inv
    return sq


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
    counts, sq = _disk_points(rng, density * region.area, region.radius, n_trials)
    s = _trial_sums(_path_gains(sq, alpha), counts)
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
    if None in regions:
        defaults = ratio_regions(spec, cfg)
        regions = tuple(given or default for given, default in zip(regions, defaults))
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


def _coupled_shot_sums(density, alpha, region, drawn, counts, sq):
    """Shot-noise sums on ``region`` and on its doubling, from one realization.

    ``counts`` and ``sq`` are the process's points by trial, as squared
    radii, on the disk ``drawn``, which contains the doubled disk.
    Restricting them to a smaller disk is an exact realization of the
    process there, so the two sums differ only by the annulus contribution
    and the difference of the tail means.  Points beyond a disk weigh
    exactly 0 in its sums, which are taken in the order of
    :func:`_trial_sums`.
    """
    big = region.doubled()
    vals = _path_gains(sq.copy(), alpha)
    if big.radius < drawn.radius:
        vals *= sq <= big.radius**2
    s_big = _trial_sums(vals, counts)
    vals *= sq <= region.radius**2
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


class _SirChunk(NamedTuple):
    """The geometry of one block of SIR trials, as path gains.

    ``req`` holds every trial's requested file, in nondecreasing order.
    Every point at distance r is stored as its path gain
    g = (r**2)**(-alpha/2), formed from its squared radius by
    :func:`_path_gains`.  ``g1`` is every trial's gain from its requested
    file's nearest point (0 where that file has no helper), and
    ``sig_tail`` that file's tail mean beyond max(R, r_1) for its signal
    disk of radius R.  Its other points on the disk are stored trial by
    trial, ``sig_counts[t]`` of them for trial ``t``, with gains ``sig_g``,
    and summed by :func:`_trial_sums`.  The interferers carry their trial
    ``labels``, cell key ``file * n + trial`` and gain ``g``; no point of a
    file lies on a trial that requests it.
    """

    req: np.ndarray
    g1: np.ndarray
    sig_tail: np.ndarray
    sig_counts: np.ndarray
    sig_g: np.ndarray
    key: np.ndarray
    labels: np.ndarray
    g: np.ndarray

    @property
    def n(self) -> int:
        return self.req.size

    @property
    def sig_trial(self) -> np.ndarray:
        """The trial of every point in ``sig_g``, formed when read."""
        return np.repeat(np.arange(self.n), self.sig_counts)


def _sums_of_others(values: np.ndarray, files: np.ndarray) -> np.ndarray:
    """Per file in ``files``, the sum of ``values`` over every other file.

    For one file it is the sum with that file's entry set to 0, in the
    order of a sum over all files; for several, the total less each file's
    own entry.
    """
    if files.size == 1:
        rest = values.copy()
        rest[files] = 0.0
        return np.full(1, rest.sum())
    return values.sum() - values[files]


class _Geometry:
    """The marked geometry of SIR trials, each requesting a file of its own.

    The constants are set once per run, from the scenario and its windows:
    per file ``j`` its helper density ``lam[j]``, threshold ``theta[j]``,
    expected points per trial on the interference disk ``int_means[j]`` and
    tail mean beyond it ``tails[j]``; and for each file ``j`` the run
    requests, its squared signal radius ``outer[j]`` and the tail mean
    ``tau_rest[j]`` of every other file.  The block size holds the request
    with the most expected points per trial.

    A block of trials requesting ``req`` draws each trial's requested file
    k_t nearest first: its nearest point at r_1 = sqrt(E / (pi lambda_k)),
    E ~ Exp(1), which is the law P(r_1 <= r) = 1 - exp(-lambda_k pi r**2)
    (Haenggi, IEEE Trans. IT 51, 2005), then Poisson(lambda_k pi (R**2 -
    min(r_1, R)**2)) further points, uniform on the annulus (min(r_1, R), R]
    of the signal disk.  That is exact, since a Poisson process is
    independent over disjoint sets.  Every file's interferers are drawn by
    the marking theorem (Kingman, *Poisson Processes*, 1993): file ``j``
    gets one Poisson count of mean ``(n - n_j) * lambda_j * area``, where
    ``n_j`` of the block's ``n`` trials request it, and each point a uniform
    position on the interference disk and a uniform trial label among the
    ``n - n_j`` trials that do not request ``j``.  So the random-number cost
    is one draw per point and per trial, and one per file and block, not one
    per (trial, file) cell.  The signal points, the interferers (by
    :func:`_disk_points`) and the nearest points are drawn as squared radii,
    and each becomes its path gain in place by :func:`_path_gains`: at
    alpha = 4, one reciprocal and one product per point.  Both SIR models
    are evaluated on this geometry.
    """

    def __init__(self, scenario: Scenario, int_region: DiskRegion,
                 files: np.ndarray, sig_radii: np.ndarray):
        self.alpha = scenario.alpha
        self.n_files = scenario.n_files
        self.lam = decompose_densities(scenario.profile, scenario.helper_density)
        self.theta = scenario.thresholds
        self.int_region = int_region
        self.int_means = self.lam * int_region.area
        self.tails = tail_mean(1.0, scenario.alpha, int_region.radius) * self.lam
        self.outer = np.zeros(self.n_files)
        self.outer[files] = np.square(sig_radii)
        self.tau_rest = np.zeros(self.n_files)
        self.tau_rest[files] = _sums_of_others(self.tails, files)
        points = (self.lam[files] * (math.pi * self.outer[files])
                  + _sums_of_others(self.int_means, files))
        self.block_trials = max(1, min(int(_BLOCK_POINTS // max(points.max(), 1.0)),
                                       _BLOCK_CELLS // self.n_files))

    def geometry(self, rng, req: np.ndarray) -> _SirChunk:
        """The points of trials requesting ``req``, one file per trial, nondecreasing."""
        n, alpha = req.size, self.alpha
        lam, outer = self.lam[req], self.outer[req]
        # Squared radii throughout, so a trial whose r_1 is beyond the disk
        # has an annulus of area exactly 0, and a gain takes no square root.
        # A file of popularity 0 has no point anywhere: r_1 = inf and no
        # further points.
        live = lam > 0.0
        r1_sq = np.full(n, np.inf)
        r1_sq[live] = rng.exponential(size=np.count_nonzero(live)) / (math.pi * lam[live])
        inner = np.minimum(r1_sq, outer)
        width = outer - inner
        sig_counts = rng.poisson(math.pi * lam * width)
        sig_g = rng.random(int(sig_counts.sum()))
        sig_g *= np.repeat(width, sig_counts)
        sig_g += np.repeat(inner, sig_counts)
        _path_gains(sig_g, alpha)
        sig_tail = tail_mean(lam, alpha, np.sqrt(np.maximum(r1_sq, outer)))
        own = np.bincount(req, minlength=self.n_files)
        counts, g = _disk_points(rng, (n - own) * self.int_means, self.int_region.radius)
        _path_gains(g, alpha)
        labels = rng.integers(0, n, size=g.size)
        # The points of the files from the block's first request to its last
        # are one contiguous run; each is relabelled uniformly among the
        # trials that do not request its file, which lie before and after
        # that file's own run of trials.
        ends = np.cumsum(counts)
        first, last = req[0], req[-1]
        start, stop = ends[first] - counts[first], ends[last]
        if stop > start:
            files = np.repeat(np.arange(first, last + 1), counts[first:last + 1])
            n_own = own[files]
            u = rng.integers(0, n - n_own)
            u += n_own * (u >= np.searchsorted(req, files))
            labels[start:stop] = u
        key = np.repeat(np.arange(0, self.n_files * n, n), counts)
        key += labels
        return _SirChunk(req, _path_gains(r1_sq, alpha), sig_tail, sig_counts, sig_g, key,
                         labels, g)

    def values(self, rng, req: np.ndarray, methods) -> np.ndarray:
        """The values of ``methods`` on fresh trials requesting ``req``, one row per method.

        The trials are drawn and evaluated one block of at most
        ``block_trials`` at a time, which bounds memory in the points per
        trial and in N.  Each block's geometry is drawn from ``rng``, and the
        methods, ``(rng, chunk) -> values``, run on it in order.  So trials
        that fit one block give ``method(rng, self.geometry(rng, req))``.
        Over several blocks the methods draw their fades from one child of
        ``rng``, spawned once, so that the geometry of a later block does
        not depend on which methods ran on the earlier ones.
        """
        n = req.size
        out = np.empty((len(methods), n))
        fades = rng if n <= self.block_trials else rng.spawn(1)[0]
        for start in range(0, n, self.block_trials):
            chunk = self.geometry(rng, req[start:start + self.block_trials])
            for row, method in zip(out, methods):
                row[start:start + chunk.n] = method(fades, chunk)
        return out


def _without_own_cells(cells: np.ndarray, chunk: _SirChunk) -> np.ndarray:
    """``cells`` (file, trial, ...) with every trial's cell of its own request set to 0."""
    cells[chunk.req, np.arange(chunk.n)] = 0.0
    return cells


class _AlignedModel:
    """Aligned-transmission SIR trials on a geometry.

    mode "exponential": unit-mean exponential fading per file on plain
    path-loss sums G_j.  Given the geometry the fading integrates out
    (Laplace transform of Rayleigh fading; Haenggi, *Stochastic Geometry
    for Wireless Networks*, 2012, ch. 5): P(SIR > theta) =
    prod_{j != k} 1 / (1 + theta * G_j / G_0) for a request of file k, which
    is what :meth:`success` returns: the product q of the factors over every
    file, the request's factor being 1, then 1 / q, with no transcendental
    per cell.  q overflows to inf only where the log-sum of the factors
    exceeds about 709, where the success is below 1e-308; it is 0 there.
    mode "complex": per-point circularly symmetric complex fading of
    amplitude sqrt(g); signal and per-file interference powers are squared
    magnitudes of coherent sums, and :meth:`success` is the 0/1 indicator
    of SIR > theta.  Complex mode draws a Gaussian per (file, trial) cell,
    so its cost grows with N; it is the oracle for exponential mode's
    fading integral.  Per-(file, trial) sums are formed for one block of
    trials at once, and each trial's cell of its own request is 0, tail
    included.  Both methods are ``(rng, chunk) -> values``.
    """

    def __init__(self, geometry: _Geometry, mode: str):
        if mode not in ("exponential", "complex"):
            raise ParameterDomainError(f"unknown mode {mode!r}")
        self.geometry = geometry
        self.mode = mode

    def cells(self, chunk: _SirChunk, weights: np.ndarray) -> np.ndarray:
        """``sums[j, t]``: the ``weights`` of trial ``t``'s points of file ``j``, summed."""
        sums = np.bincount(chunk.key, weights=weights, minlength=self.geometry.n_files * chunk.n)
        # bincount of no points is an integer array; the callers add floats in place.
        return sums.astype(float, copy=False).reshape(-1, chunk.n)

    def gains(self, chunk: _SirChunk) -> np.ndarray:
        """G_j per (file, trial) cell: the path-loss sum and the tail mean, 0 for the request."""
        gains = self.cells(chunk, chunk.g)
        gains += self.geometry.tails[:, None]
        return _without_own_cells(gains, chunk)

    def signal_gain(self, chunk: _SirChunk) -> np.ndarray:
        """G_0 per trial: the requested file's path-loss sum and its tail mean."""
        return _trial_sums(chunk.sig_g, chunk.sig_counts) + chunk.g1 + chunk.sig_tail

    def success(self, rng, chunk: _SirChunk):
        """Per-trial values whose mean estimates P(SIR > theta)."""
        s, n = self.geometry, chunk.n
        if self.mode == "complex":
            return (self.sir(rng, chunk) > s.theta[chunk.req]).astype(float)
        if s.n_files == 1:
            return np.ones(n)
        g0 = self.signal_gain(chunk)
        # A requested file of zero popularity has G_0 = 0, signal and tail: SIR 0.
        live = g0 > 0.0
        gains = self.gains(chunk)
        gains *= s.theta[chunk.req] / np.where(live, g0, 1.0)
        gains += 1.0
        # An overflow to inf gives success 0 (class docstring).
        with np.errstate(over="ignore"):
            q = np.multiply.reduce(gains, axis=0)
        return np.where(live, np.reciprocal(q, out=q), 0.0)

    def sir(self, rng, chunk: _SirChunk):
        """SIR samples, one per trial."""
        s, n = self.geometry, chunk.n
        if s.n_files == 1:
            return np.full(n, np.inf)
        if self.mode == "exponential":
            s0 = rng.exponential(size=n) * self.signal_gain(chunk)
            gains = self.gains(chunk)
            interference = (rng.exponential(size=gains.shape) * gains).sum(axis=0)
        else:
            amp_sig, counts = np.sqrt(chunk.sig_g), chunk.sig_counts
            z_sig = (_trial_sums(amp_sig * rng.standard_normal(amp_sig.size), counts)
                     + 1j * _trial_sums(amp_sig * rng.standard_normal(amp_sig.size), counts)
                     ) / math.sqrt(2.0)
            # The nearest point's faded amplitude and the tail's Gaussian are
            # independent circular Gaussians: one draw of their summed power.
            near = np.sqrt((chunk.g1 + chunk.sig_tail) / 2.0)
            z_sig += near * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            s0 = np.abs(z_sig) ** 2
            fade = rng.standard_normal((2, chunk.g.size))
            fade *= np.sqrt(chunk.g)
            # Tail terms in (file, trial, part) order.
            tail = _without_own_cells(
                np.sqrt(s.tails[:, None, None] / 2.0) * rng.standard_normal((s.n_files, n, 2)),
                chunk)
            re = self.cells(chunk, fade[0]) / math.sqrt(2.0) + tail[..., 0]
            im = self.cells(chunk, fade[1]) / math.sqrt(2.0) + tail[..., 1]
            interference = (re**2 + im**2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return s0 / interference


class _NearestHelperModel:
    """Nearest-helper SIR trials (no alignment) on a geometry.

    The serving helper is the nearest point of the requested file's
    process, at r_1; the geometry draws it first, inside the signal disk or
    beyond it, so every trial has one.  Every other point, of the
    requested file or of the interferers, interferes with its own unit-mean
    exponential fade, and the tail means add unfaded.  A requested file of
    zero popularity has no helper anywhere (gain ``g1 = 0``): success and
    SIR 0.  Both methods are ``(rng, chunk) -> values``; :meth:`success`
    draws nothing.
    """

    def __init__(self, geometry: _Geometry):
        self.geometry = geometry

    def success(self, rng, chunk: _SirChunk):
        """Per-trial P(SIR > theta) given the geometry, the fades integrated out.

        With ``x = theta * r1**alpha = theta / g1`` for the server at r_1, a
        point of path gain ``g`` passes with E[exp(-x h g)] = 1 / (1 + x g),
        so a trial's value is exp(-x * tails) * prod_{i != server} 1 / (1 + x g_i).
        """
        s, n = self.geometry, chunk.n
        with np.errstate(divide="ignore"):
            x = s.theta[chunk.req] / chunk.g1
        log_q = x * (chunk.sig_tail + s.tau_rest[chunk.req])
        # The requested file's points lie trial by trial, the interferers' at random labels.
        t = np.repeat(x, chunk.sig_counts)
        t *= chunk.sig_g
        log_q += _trial_sums(np.log1p(t, out=t), chunk.sig_counts)
        t = x[chunk.labels]
        t *= chunk.g
        log_q += np.bincount(chunk.labels, weights=np.log1p(t, out=t), minlength=n)
        return np.exp(-log_q)

    def sir(self, rng, chunk: _SirChunk):
        """SIR samples, one exponential fade per point."""
        s, n = self.geometry, chunk.n
        signal = rng.exponential(size=n) * chunk.g1
        sig_power = rng.exponential(size=chunk.sig_g.size) * chunk.sig_g
        int_power = rng.exponential(size=chunk.g.size) * chunk.g
        interference = (_trial_sums(sig_power, chunk.sig_counts)
                        + np.bincount(chunk.labels, weights=int_power, minlength=n)
                        + chunk.sig_tail + s.tau_rest[chunk.req])
        return signal / interference


def _sir_geometry(scenario: Scenario, cfg: TrialConfig, files: np.ndarray,
                  regions=(None, None)) -> _Geometry:
    """The geometry of trials requesting ``files``, on ``regions = (signal, interference)``.

    A window left ``None`` takes its default on its own, that of
    :func:`aligned_regions`, for every file at once; a file of popularity 0
    has no default signal disk.  That, and a request whose expected points
    do not fit a chunk, raise :class:`ParameterDomainError` before any draw.
    """
    sig_region, int_region = regions
    lam = scenario.helper_density
    lam_k = decompose_densities(scenario.profile, lam)[files]
    if int_region is None:
        int_region = default_region(lam, scenario.alpha, cfg.tail_tol)
    if sig_region is not None:
        sig_radii = np.full(files.size, sig_region.radius)
    elif np.all(lam_k > 0.0):
        sig_radii = _window_factor(scenario.alpha, cfg.tail_tol) / np.sqrt(lam_k)
    else:
        raise ParameterDomainError(
            f"file {files[np.argmin(lam_k > 0.0)]} has popularity 0 and no default signal "
            f"window; pass a signal_region")
    worst = int(np.argmax(lam_k * sig_radii**2 + (lam - lam_k) * int_region.radius**2))
    _check_chunk_points(cfg.trials, ((lam_k[worst], DiskRegion(float(sig_radii[worst]))),
                                     (lam - lam_k[worst], int_region)))
    return _Geometry(scenario, int_region, files, sig_radii)


def _fold(values: np.ndarray):
    """The :class:`Moments` of one row of per-trial values, the :class:`CoMoments` of two."""
    return Moments.of(values[0]) if len(values) == 1 else CoMoments.of(*values)


def _sir_samples(scenario: Scenario, k: int, cfg: TrialConfig, regions, model) -> np.ndarray:
    """Per-trial values of the method ``model(geometry)`` on trials requesting ``k``.

    The trials and their geometry are those of the conditional
    :func:`_sir_run`, gathered on the calling thread.
    """
    _check_file_index(scenario.n_files, k)
    geometry = _sir_geometry(scenario, cfg, np.array([k]), regions)
    method = model(geometry)
    return gather_chunked_samples(
        cfg.trials, cfg.seed, lambda rng, n: geometry.values(rng, np.full(n, k), (method,))[0])


def sir_samples_aligned(scenario: Scenario, k: int, cfg: TrialConfig,
                        mode: str = "exponential",
                        signal_region: DiskRegion | None = None,
                        interference_region: DiskRegion | None = None) -> np.ndarray:
    """Per-trial SIR samples under aligned transmission, request fixed to ``k``."""
    return _sir_samples(scenario, k, cfg, (signal_region, interference_region),
                        lambda geometry: _AlignedModel(geometry, mode).sir)


def simulate_sir_aligned(scenario: Scenario, k: int, cfg: TrialConfig,
                         mode: str = "exponential",
                         signal_region: DiskRegion | None = None,
                         interference_region: DiskRegion | None = None) -> Estimate:
    """P(SIR > theta_k) under aligned transmission, request fixed to file ``k``.

    The estimate is the mean of per-trial values: conditional success
    probabilities given the geometry in exponential mode, success
    indicators in complex mode.
    """
    return _sir_run(scenario, cfg, k, lambda geometry: (_AlignedModel(geometry, mode).success,),
                    (signal_region, interference_region))


def sir_samples_baseline(scenario: Scenario, k: int, cfg: TrialConfig,
                         signal_region: DiskRegion | None = None,
                         interference_region: DiskRegion | None = None) -> np.ndarray:
    """Per-trial nearest-helper SIR samples, request fixed to file ``k``.

    One exponential fade is drawn per point of the same geometry that
    :func:`simulate_sir_baseline` averages over.
    """
    return _sir_samples(scenario, k, cfg, (signal_region, interference_region),
                        lambda geometry: _NearestHelperModel(geometry).sir)


def simulate_sir_baseline(scenario: Scenario, k: int, cfg: TrialConfig,
                          signal_region: DiskRegion | None = None,
                          interference_region: DiskRegion | None = None) -> Estimate:
    """P(SIR > theta_k) for nearest-helper service without alignment.

    The estimate is the mean of per-trial success probabilities given the
    geometry.  Every trial's serving helper is drawn first, inside the signal
    disk or beyond it, so no trial is redrawn.
    """
    return _sir_run(scenario, cfg, k, lambda geometry: (_NearestHelperModel(geometry).success,),
                    (signal_region, interference_region))


class Totals(NamedTuple):
    """Aligned and nearest-helper delivery probabilities on common trials, and their ratio."""

    aligned: Estimate
    baseline: Estimate
    gain: Estimate


class _FileRecords(dict):
    """A total's per-file records, ``{file: Moments}``, or ``CoMoments`` for two values.

    ``a + b`` pools each file's records, ``a``'s first, and keeps the files
    of both.
    """

    @classmethod
    def of(cls, req: np.ndarray, values: np.ndarray) -> "_FileRecords":
        """The records of ``values`` (one row per value) over trials requesting ``req``.

        ``req`` is nondecreasing, so each file's trials are one segment, and
        every file is reduced at once over its segment.
        """
        starts = np.flatnonzero(np.diff(req, prepend=-1))
        counts = np.diff(starts, append=req.size)
        means = np.add.reduceat(values, starts, axis=1) / counts
        dev = values - np.repeat(means, counts, axis=1)
        rows = [[Moments(count, mean, m2) for count, mean, m2 in
                 zip(counts.tolist(), row.tolist(), row_m2.tolist())]
                for row, row_m2 in zip(means, np.add.reduceat(dev * dev, starts, axis=1))]
        if len(rows) == 2:
            cross = np.add.reduceat(dev[0] * dev[1], starts).tolist()
            rows = [[CoMoments(*pair) for pair in zip(*rows, cross)]]
        return cls(zip(req[starts].tolist(), rows[0]))

    def __add__(self, other):
        if not isinstance(other, _FileRecords):
            return NotImplemented
        pooled = _FileRecords(self)
        for k, record in other.items():
            pooled[k] = pooled[k] + record if k in pooled else record
        return pooled


#: Stream offset of a total's chunk grid: its chunk ``i`` draws from
#: ``substream(seed, _TOTAL_STREAM + i)``, apart from ``substream(seed, 0)``,
#: which draws the requests.
_TOTAL_STREAM = 1


def _request_counts(scenario: Scenario, cfg: TrialConfig) -> np.ndarray:
    """Multinomial split of the trials over the files, by popularity."""
    rng = substream(cfg.seed, 0)
    return rng.multinomial(cfg.trials, scenario.profile.weights)


def _result(record, seed: int):
    """The :class:`Estimate` of one model's :class:`Moments`, or the :class:`Totals`
    of the nearest-helper and aligned models' :class:`CoMoments`."""
    if isinstance(record, Moments):
        return record.estimate(seed)
    return Totals(record.y.estimate(seed), record.x.estimate(seed), record.ratio(seed))


def _sir_run(scenario: Scenario, cfg: TrialConfig, k, models, regions=(None, None),
             return_strata: bool = False):
    """Success probabilities of SIR trials requesting file ``k``, or randomized for ``k=None``.

    A total splits its requests by one multinomial draw (equivalent to
    drawing them one by one) over the chunk grid at ``_TOTAL_STREAM``; a
    conditional run puts every trial on file ``k``, over the grid at offset
    0.  The trials, sorted by request, run on the windows of
    :func:`_sir_geometry`, and ``models(geometry)`` on each block of them in
    order (:meth:`_Geometry.values`).  Their values fold into one record per
    chunk and, with ``return_strata``, into per-file records; the records
    add up in chunk order, and :func:`_result` finishes each one.
    """
    if k is None:
        counts, offset = _request_counts(scenario, cfg), _TOTAL_STREAM
    else:
        _check_file_index(scenario.n_files, k)
        counts, offset = np.zeros(scenario.n_files, dtype=np.int64), 0
        counts[k] = cfg.trials
    geometry = _sir_geometry(scenario, cfg, np.flatnonzero(counts), regions)
    methods = models(geometry)
    ends = np.cumsum(counts)

    def chunk(rng, n):
        start = chunk_start(rng, offset)
        req = np.repeat(np.arange(scenario.n_files),
                        np.diff(np.clip(ends, start, start + n), prepend=start))
        values = geometry.values(rng, req, methods)
        if return_strata:
            return _fold(values), _FileRecords.of(req, values)
        return (_fold(values),)

    records = run_counting_chunks(cfg.trials, cfg.seed, chunk, cfg.partitions,
                                  stream_offset=offset)
    total = _result(records[0], cfg.seed)
    if return_strata:
        return total, {f: _result(record, cfg.seed) for f, record in records[1].items()}
    return total


def simulate_total_aligned(scenario: Scenario, cfg: TrialConfig,
                           mode: str = "exponential", return_strata: bool = False):
    """Total delivery probability under aligned transmission, requests randomized.

    With ``return_strata`` the per-file conditional estimates (at their
    random request counts) are returned alongside the total, as a dict
    over the requested files.  Every estimate is a mean of per-trial
    values, as in :func:`simulate_sir_aligned`.
    """
    return _sir_run(scenario, cfg, None,
                    lambda geometry: (_AlignedModel(geometry, mode).success,),
                    return_strata=return_strata)


def simulate_total_baseline(scenario: Scenario, cfg: TrialConfig,
                            return_strata: bool = False):
    """Total delivery probability for nearest-helper service, requests randomized."""
    return _sir_run(scenario, cfg, None,
                    lambda geometry: (_NearestHelperModel(geometry).success,),
                    return_strata=return_strata)


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
    geometry (:meth:`_Geometry.values`).  With ``return_strata`` the
    per-file :class:`Totals` are returned alongside.
    """
    return _sir_run(scenario, cfg, None,
                    lambda geometry: (_NearestHelperModel(geometry).success,
                                      _AlignedModel(geometry, mode).success),
                    return_strata=return_strata)
