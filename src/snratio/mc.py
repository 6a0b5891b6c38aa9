"""Monte Carlo plumbing: estimates, keyed substreams, and chunked trial runs.

Reproducibility contract: every randomized operation derives its draws from
counter-based (Philox) substreams keyed by ``(master seed, chunk index)``
over a fixed grid of trial chunks.  Per-chunk results are integer success
counts, the :class:`Moments` of real per-trial values, or the
:class:`CoMoments` of two such values per trial, and they are merged in
chunk order, so the final estimate is bit-identical no matter how the
chunks are partitioned across workers.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError

#: Number of trials evaluated per substream.  Fixed so that partitioning
#: across workers never changes which draws belong to which trial.
CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its standard error and provenance.

    ``resampled`` is always 0: no sampler redraws a trial.  The field stays
    so that code reading it keeps working.
    """

    mean: float
    stderr: float
    trials: int
    seed: int
    resampled: int = 0


def check_integer(name: str, value, minimum: int) -> None:
    """Raise :class:`ParameterDomainError` unless ``value`` is an integer >= ``minimum``.

    Seeds and sample sizes key the random streams, so integer-valued floats
    and bools are rejected too: ``1.0`` must not stand for ``1``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParameterDomainError(
            f"{name} must be an integer of at least {minimum}, got {value!r}")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index), counter-based."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def bernoulli_estimate(successes: int, trials: int, seed: int) -> Estimate:
    """Estimate of a success probability from exact integer counts."""
    if trials < 1:
        raise ParameterDomainError("trials must be at least 1")
    p = successes / trials
    if trials > 1:
        sd = math.sqrt(p * (1.0 - p) * trials / (trials - 1.0))
    else:
        sd = 0.0
    return Estimate(p, sd / math.sqrt(trials), trials, seed)


def mean_estimate(values: np.ndarray, seed: int) -> Estimate:
    """Estimate of a mean from a sample of real values."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 1:
        raise ParameterDomainError("need at least one sample")
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    return Estimate(float(values.mean()), sd / math.sqrt(n), n, seed)


@dataclass(frozen=True)
class Moments:
    """Count, mean and sum of squared deviations of a sample of real values.

    ``a + b`` is the moments of the two samples pooled (the pairwise update
    of Chan, Golub & LeVeque, 1983), and ``0 + m`` is ``m``, so ``sum()``
    folds per-chunk moments; folded in a fixed order, the result has fixed
    bits.
    """

    count: int
    mean: float
    m2: float

    @classmethod
    def of(cls, values) -> "Moments":
        values = np.asarray(values, dtype=float)
        if values.size < 1:
            raise ParameterDomainError("need at least one sample")
        mean = float(values.mean())
        return cls(values.size, mean, float(np.square(values - mean).sum()))

    def __add__(self, other):
        if not isinstance(other, Moments):
            return NotImplemented
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(count, self.mean + delta * (other.count / count),
                       self.m2 + other.m2 + delta * delta * (self.count * other.count / count))

    def __radd__(self, other):
        return self if other == 0 else NotImplemented

    def estimate(self, seed: int) -> Estimate:
        """The sample mean with its standard error."""
        sd = math.sqrt(self.m2 / (self.count - 1)) if self.count > 1 else 0.0
        return Estimate(self.mean, sd / math.sqrt(self.count), self.count, seed)


@dataclass(frozen=True)
class CoMoments:
    """The :class:`Moments` of two samples taken on the same trials, and their co-moment.

    ``cross`` is the sum over trials of (x - mean x) * (y - mean y).  ``a + b``
    pools by the same pairwise update as :class:`Moments`, so the marginals
    ``x`` and ``y`` have exactly the bits of folding each sample alone.
    """

    x: Moments
    y: Moments
    cross: float

    @classmethod
    def of(cls, x, y) -> "CoMoments":
        mx, my = Moments.of(x), Moments.of(y)
        return cls(mx, my, float(np.dot(np.asarray(x, dtype=float) - mx.mean,
                                        np.asarray(y, dtype=float) - my.mean)))

    def __add__(self, other):
        if not isinstance(other, CoMoments):
            return NotImplemented
        weight = self.x.count * other.x.count / (self.x.count + other.x.count)
        cross = (self.cross + other.cross
                 + (other.x.mean - self.x.mean) * (other.y.mean - self.y.mean) * weight)
        return CoMoments(self.x + other.x, self.y + other.y, cross)

    def __radd__(self, other):
        return self if other == 0 else NotImplemented

    def ratio(self, seed: int) -> Estimate:
        """``mean(y) / mean(x)`` with its delta-method standard error.

        The variance is that of the sample mean of ``y - ratio * x`` over
        ``mean(x)**2``, so the covariance of the two samples is included.  A
        nonpositive ``mean(x)`` gives ``nan``.
        """
        n = self.x.count
        if not self.x.mean > 0.0:
            return Estimate(math.nan, math.nan, n, seed)
        r = self.y.mean / self.x.mean
        if n < 2:
            return Estimate(r, 0.0, n, seed)
        var = (self.y.m2 - 2.0 * r * self.cross + r * r * self.x.m2) / (n - 1)
        return Estimate(r, math.sqrt(max(var, 0.0) / n) / self.x.mean, n, seed)


def chunk_sizes(total: int) -> list[int]:
    """Split a trial count over the fixed chunk grid (last chunk may be short)."""
    if total < 1:
        raise ParameterDomainError("total trials must be at least 1")
    full, rest = divmod(total, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def ordered_map(fn, items, threads: int, start_order=None) -> list:
    """``[fn(item) for item in items]``, evaluated on up to ``threads`` threads.

    With one thread, or at most one item, every call runs inline on the
    calling thread and no pool is started.  Otherwise the items are handed
    to a pool of ``threads`` threads in ``start_order`` (a permutation of
    the item indices; default: item order), so the longest calls can be
    started first.  Either way the results come back in item order, and if
    calls raise, the exception of the earliest raising item in item order
    propagates, as it would in the inline run.
    """
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    order = range(len(items)) if start_order is None else start_order
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(items))]
        except BaseException:
            for future in futures.values():
                future.cancel()
            raise


def run_counting_chunks(total_trials: int, seed: int, chunk_fn,
                        partitions: int = 1, stream_offset: int = 0):
    """Run ``chunk_fn(rng, n) -> tuple`` of ints or moment records over the chunk grid.

    ``partitions`` only controls how many worker threads evaluate the chunks
    (a single-chunk run stays on the calling thread); the per-chunk
    substreams and the summation in chunk order make the result independent
    of the partitioning.  Returns the elementwise sum of the per-chunk tuples.
    """
    check_integer("partitions", partitions, 1)

    def one(args):
        index, n = args
        return chunk_fn(substream(seed, stream_offset + index), n)

    results = ordered_map(one, enumerate(chunk_sizes(total_trials)), partitions)
    return tuple(sum(col) for col in zip(*results))


def gather_chunked_samples(total_trials: int, seed: int, sample_fn) -> np.ndarray:
    """Concatenate per-chunk sample arrays in chunk order (deterministic).

    Runs on the calling thread, unlike :func:`run_counting_chunks`: the
    samples are kept whole anyway, and concurrent chunks would each hold
    their working arrays too (four point-sized arrays in a complex-mode SIR
    chunk), which raised the validation suite's peak memory by about 17%.
    The validation suite overlaps whole gatherers instead, each one a job
    of its own on its ``partitions`` threads.
    """
    parts = []
    for index, n in enumerate(chunk_sizes(total_trials)):
        parts.append(sample_fn(substream(seed, index), n))
    return np.concatenate(parts)
