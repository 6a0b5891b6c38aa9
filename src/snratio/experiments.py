"""Reproducible experiment sweeps, CSV reports, and the validation suite.

Every run writes a self-describing CSV: leading ``#`` comment lines carry
the configuration hash, the seed, and every knob needed to reproduce the
numbers; the header row names the columns; floats are printed with nine
significant digits.  A small matplotlib script is emitted next to each CSV
so figures can be drawn without adding a plotting dependency here.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import delivery, shotnoise, simulate
from .delivery import FadingBatch, Scenario
from .errors import ParameterDomainError, SeriesDivergenceError
from .mc import Estimate, check_integer, ordered_map
from .shotnoise import RatioSpec, SeriesControl
from .simulate import TrialConfig

#: Two-sample Kolmogorov-Smirnov coefficient at the 1% level.
_KS_COEFF_1PCT = 1.628

#: A fig5 gain closer to zero than this many of its standard errors is
#: unresolved: no approximation can be judged against it.
_GAIN_MIN_Z = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of a sweep run; field names double as config-file keys."""

    helper_density: float = 0.1
    alphas: tuple = (3.0, 4.0)
    n_files: int = 50
    theta: float = 5.0
    gamma_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    fig4_n_files: tuple = (5, 50, 500)
    fig5_n_files: tuple = (5, 500)
    fig5_alpha: float = 4.0
    trials: int = 20000
    batch_samples: int = 20000
    seed: int = 1
    tail_tol: float = TrialConfig.tail_tol
    mc_tol: float = float("nan")  # nan: use 3 * stderr in the MC agreement check
    partitions: int = 1
    sim_mode: str = "exponential"
    out_dir: str = "out"

    def __post_init__(self):
        for name in ("alphas", "gamma_grid", "fig4_n_files", "fig5_n_files"):
            if len(getattr(self, name)) == 0:
                raise ParameterDomainError(f"{name} must be nonempty")
        if not all(2.0 < a < math.inf for a in (*self.alphas, self.fig5_alpha)):
            raise ParameterDomainError("every alpha must exceed 2 and be finite")
        if not all(0.0 <= g < math.inf for g in self.gamma_grid):
            raise ParameterDomainError("every skew in gamma_grid must be nonnegative and finite")
        check_integer("n_files", self.n_files, 1)
        for name in ("fig4_n_files", "fig5_n_files"):
            for n in getattr(self, name):
                check_integer(f"every entry of {name}", n, 1)
        self.trial_config()  # checks trials, seed, tail_tol and partitions
        check_integer("batch_samples", self.batch_samples, 1)
        if not 0.0 < self.helper_density < math.inf:
            raise ParameterDomainError("helper_density must be positive and finite")
        if not 0.0 < self.theta < math.inf:
            raise ParameterDomainError("theta must be positive and finite")
        if not (math.isnan(self.mc_tol) or 0.0 < self.mc_tol < math.inf):
            raise ParameterDomainError("mc_tol must be positive and finite, or nan")
        if self.sim_mode not in ("exponential", "complex"):
            raise ParameterDomainError(f"unknown sim_mode {self.sim_mode!r}")

    def trial_config(self, trials=None, seed=None) -> TrialConfig:
        return TrialConfig(trials=self.trials if trials is None else trials,
                           seed=self.seed if seed is None else seed,
                           tail_tol=self.tail_tol,
                           partitions=self.partitions)

    def batch(self, samples=None, seed_offset: int = 0) -> FadingBatch:
        return FadingBatch(sample_count=self.batch_samples if samples is None else samples,
                           seed=self.seed + seed_offset)

    def hash(self) -> str:
        # out_dir and partitions cannot change any reported number, so they
        # stay out of the reproducibility hash.
        blob = ";".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                        if f.name not in ("out_dir", "partitions"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def meta(self) -> dict:
        m = {"config_hash": self.hash()}
        m.update({f.name: getattr(self, f.name) for f in fields(self)})
        return m


def parse_config_file(path: str) -> dict:
    """Flat ``key=value`` file; blank lines and ``#`` comments are skipped."""
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterDomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ParameterDomainError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce_config_value(key, value)
    return out


def parse_number_list(text: str, elem=float) -> tuple:
    """The numbers of a comma- or space-separated list, as ``elem``s."""
    return tuple(elem(v) for v in text.replace(",", " ").split())


def _coerce_config_value(key: str, value: str):
    current = getattr(ExperimentConfig(), key)
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    if isinstance(current, tuple):
        return parse_number_list(value, type(current[0]))
    return value


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.9g}"
    return str(value)


def write_csv(path: str, meta: dict, header: list[str], rows: list[tuple]) -> None:
    """Write a report: ``# key=value`` comment lines, a header row, data rows."""
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(c) for c in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path: str):
    """Round-trip reader for :func:`write_csv`: returns (meta, header, rows)."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            body_start = i + 1
        else:
            break
    reader = csv.reader(lines[body_start:])
    header = next(reader)
    rows = []
    for raw in reader:
        if not raw:
            continue
        row = {}
        for name, cell in zip(header, raw):
            try:
                row[name] = float(cell)
            except ValueError:
                row[name] = cell
        rows.append(row)
    return meta, header, rows


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Auto-generated companion plotter for {csv_name}; needs matplotlib.
import csv
import os
from collections import defaultdict

import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))
rows = []
with open(os.path.join(here, {csv_name!r})) as fh:
    data = [line for line in fh if not line.startswith('#')]
for row in csv.DictReader(data):
    rows.append(row)

groups = defaultdict(list)
for row in rows:
    key = tuple(row[c] for c in {group_cols!r})
    groups[key].append((float(row[{x_col!r}]), float(row[{y_col!r}])))

plt.figure(figsize=(6, 4))
for key, pts in sorted(groups.items()):
    pts.sort()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    plt.plot(xs, ys, marker='o', label=' '.join(map(str, key)))
plt.xlabel({x_col!r})
plt.ylabel({y_col!r})
plt.legend(fontsize=7)
plt.grid(alpha=0.3)
plt.tight_layout()
plt.savefig(os.path.join(here, {png_name!r}), dpi=150)
print('wrote', {png_name!r})
"""


def write_plot_script(path: str, csv_name: str, group_cols, x_col: str, y_col: str) -> None:
    png_name = os.path.splitext(csv_name)[0] + ".png"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv_name=csv_name, group_cols=tuple(group_cols),
                                       x_col=x_col, y_col=y_col, png_name=png_name))


# ---------------------------------------------------------------------------
# Figure sweeps
# ---------------------------------------------------------------------------

def run_figure3(config: ExperimentConfig):
    """Delivery probability with and without alignment versus popularity skew.

    One row per (gamma, alpha, method); the alignment gain is attached to
    the aligned-simulation rows.  Returns (header, rows).
    """
    header = ["gamma", "alpha", "method", "p_top_file", "p_total", "stderr", "gain"]
    rows = []
    for gamma in config.gamma_grid:
        for alpha in config.alphas:
            scenario = Scenario.from_zipf(config.n_files, gamma, config.theta,
                                          alpha, config.helper_density)
            cfg = config.trial_config()
            batch = config.batch()
            a_top = float(scenario.profile.weights[0])

            sim, strata = simulate.simulate_totals(scenario, cfg, mode=config.sim_mode,
                                                   return_strata=True)
            sim_a, sim_b = sim.aligned, sim.baseline

            upper = delivery.total_delivery_prob(scenario, "upper", batch)
            lower = delivery.total_delivery_prob(scenario, "lower", batch)
            top_upper = delivery.delivery_upper_bound(a_top, config.theta, alpha)
            top_lower = delivery.delivery_lower_bound(a_top, config.theta, alpha, batch)
            top_baseline = delivery.baseline_delivery_prob(a_top, config.theta, alpha)

            top = strata.get(0)
            rows.append((gamma, alpha, "sim_aligned", top.aligned.mean if top else float("nan"),
                         sim_a.mean, sim_a.stderr, sim.gain.mean))
            rows.append((gamma, alpha, "sim_baseline", top.baseline.mean if top else float("nan"),
                         sim_b.mean, sim_b.stderr, float("nan")))
            rows.append((gamma, alpha, "upper_bound", top_upper,
                         upper.mean, upper.stderr, float("nan")))
            rows.append((gamma, alpha, "lower_bound", top_lower.mean,
                         lower.mean, lower.stderr, float("nan")))
            rows.append((gamma, alpha, "baseline_closed", top_baseline,
                         delivery.total_delivery_prob(scenario, "baseline", batch).mean,
                         0.0, float("nan")))
            if alpha == 4.0:
                w = scenario.profile.weights
                bounds = delivery.alpha4_bounds(w, config.theta)
                rows.append((gamma, alpha, "lower_bound_a4_gamma", float(bounds.lower_a[0]),
                             float(w @ bounds.lower_a), 0.0, float("nan")))
                rows.append((gamma, alpha, "lower_bound_a4_arctan", float(bounds.lower_b[0]),
                             float(w @ bounds.lower_b), 0.0, float("nan")))
    return header, rows


def check_figure3(rows) -> list[str]:
    """Ordering violations in a fig3 row set (empty means clean).

    Also flags a nearest-helper simulated total more than three of its
    standard errors off the nearest-helper closed form.
    """
    problems = []
    by_point = {}
    for row in rows:
        by_point.setdefault((row[0], row[1]), {})[row[2]] = row
    for (gamma, alpha), methods in sorted(by_point.items()):
        sim = methods["sim_aligned"]
        upper = methods["upper_bound"]
        lower = methods["lower_bound"]
        slack = 3.0 * math.hypot(sim[5], lower[5])
        if sim[4] > upper[4] + 3.0 * sim[5]:
            problems.append(f"gamma={gamma} alpha={alpha}: simulated total "
                            f"{sim[4]:.5f} above upper bound {upper[4]:.5f}")
        if sim[4] < lower[4] - slack:
            problems.append(f"gamma={gamma} alpha={alpha}: simulated total "
                            f"{sim[4]:.5f} below lower bound {lower[4]:.5f}")
        base, closed = methods["sim_baseline"], methods["baseline_closed"]
        if not abs(base[4] - closed[4]) <= 3.0 * base[5]:
            problems.append(f"gamma={gamma} alpha={alpha}: simulated nearest-helper total "
                            f"{base[4]:.5f} vs closed form {closed[4]:.5f} beyond "
                            f"{3.0 * base[5]:.5f}")
        if "lower_bound_a4_gamma" in methods:
            la = methods["lower_bound_a4_gamma"][4]
            lb = methods["lower_bound_a4_arctan"][4]
            if lb > la + 1e-12:
                problems.append(f"gamma={gamma} alpha={alpha}: arctan lower bound "
                                f"{lb:.5f} exceeds incomplete-gamma bound {la:.5f}")
    return problems


def check_figure4(rows) -> list[str]:
    """Simulation vs expectation-form disagreements in a fig4 row set."""
    problems = []
    by_point = {}
    for row in rows:
        by_point.setdefault((row[0], row[1], row[2]), {})[row[3]] = row
    for (gamma, alpha, n_files), methods in sorted(by_point.items()):
        sim = methods["sim_aligned"]
        closed = methods["expectation_form"]
        slack = 3.0 * math.hypot(sim[5], closed[5])
        if abs(sim[4] - closed[4]) > slack:
            problems.append(
                f"gamma={gamma} alpha={alpha} n_files={n_files}: simulated "
                f"{sim[4]:.5f} vs expectation form {closed[4]:.5f} beyond {slack:.5f}")
    return problems


def check_figure5(rows) -> list[str]:
    """Gain approximations off the simulated gain in a fig5 row set.

    A row is flagged when |approx - gain| exceeds the larger of 10% of the
    gain and three standard errors of it, or when its gain is unresolved:
    nan because a model had no successes, or less than three standard
    errors from zero.  The paper's headline claim, a gain that grows with
    the skew, is checked too: per (alpha, n_files), with nan rows skipped,
    a gain more than three combined standard errors below the gain at the
    next smaller skew is flagged.
    """
    problems = []
    curves = {}
    for gamma, alpha, n_files, gain, gain_err, approx, rel_gap in rows:
        if not math.isnan(gain):
            curves.setdefault((alpha, n_files), []).append((gamma, gain, gain_err))
        where = f"gamma={gamma} alpha={alpha} n_files={n_files}"
        if not _GAIN_MIN_Z * gain_err <= gain:
            problems.append(f"{where}: simulated gain {gain:.4g} +- {gain_err:.4g} "
                            f"is unresolved (approximation {approx:.4f})")
        elif not abs(approx - gain) <= max(0.10 * gain, 3.0 * gain_err):
            problems.append(
                f"{where}: approximation "
                f"{approx:.4f} vs simulated gain {gain:.4f} +- {gain_err:.4f} "
                f"(off by {rel_gap:+.1%})")
    for (alpha, n_files), points in sorted(curves.items()):
        points.sort()
        for (g0, gain0, err0), (g1, gain1, err1) in zip(points, points[1:]):
            if gain1 < gain0 - 3.0 * math.hypot(err0, err1):
                problems.append(
                    f"alpha={alpha} n_files={n_files}: simulated gain falls from "
                    f"{gain0:.4f} +- {err0:.4f} at gamma={g0} to "
                    f"{gain1:.4f} +- {err1:.4f} at gamma={g1}")
    return problems


def run_figure4(config: ExperimentConfig):
    """Effect of the database size: totals versus skew for several file counts."""
    header = ["gamma", "alpha", "n_files", "method", "p_total", "stderr"]
    rows = []
    for n_files in config.fig4_n_files:
        for gamma in config.gamma_grid:
            for alpha in config.alphas:
                scenario = Scenario.from_zipf(n_files, gamma, config.theta,
                                              alpha, config.helper_density)
                cfg = config.trial_config()
                batch = config.batch()
                sim = simulate.simulate_total_aligned(scenario, cfg, mode=config.sim_mode)
                thm1 = delivery.total_delivery_prob(scenario, "expectation", batch)
                try:
                    thm2 = delivery.total_delivery_prob(scenario, "series", batch)
                    thm2_val, thm2_err = thm2.mean, thm2.stderr
                except SeriesDivergenceError:
                    thm2_val, thm2_err = float("nan"), float("nan")
                rows.append((gamma, alpha, n_files, "sim_aligned", sim.mean, sim.stderr))
                rows.append((gamma, alpha, n_files, "expectation_form", thm1.mean, thm1.stderr))
                rows.append((gamma, alpha, n_files, "series_form", thm2_val, thm2_err))
    return header, rows


def run_figure5(config: ExperimentConfig):
    """Alignment gain and its closed-form approximation versus skew.

    Both models run on common trials (:func:`simulate.simulate_totals`), so
    ``sim_gain_stderr`` is the delta-method standard error with their
    covariance included.  A point where either model has no successes gets
    a nan gain, stderr and gap.
    """
    header = ["gamma", "alpha", "n_files", "sim_gain", "sim_gain_stderr",
              "approx_gain", "rel_gap"]
    rows = []
    alpha = config.fig5_alpha
    for n_files in config.fig5_n_files:
        for gamma in config.gamma_grid:
            scenario = Scenario.from_zipf(n_files, gamma, config.theta,
                                          alpha, config.helper_density)
            cfg = config.trial_config()
            sim = simulate.simulate_totals(scenario, cfg, mode=config.sim_mode)
            if sim.aligned.mean > 0 and sim.baseline.mean > 0:
                gain, gain_err = sim.gain.mean, sim.gain.stderr
            else:
                gain = gain_err = float("nan")
            approx = float(delivery.alignment_gain_approx(
                float(scenario.profile.weights[0]), config.theta, alpha))
            rows.append((gamma, alpha, n_files, gain, gain_err, approx,
                         (approx - gain) / gain))
    return header, rows


# ---------------------------------------------------------------------------
# Curve dumps
# ---------------------------------------------------------------------------

def run_ccdf_dump(alpha: float, ratio: float, xs) -> tuple[list[str], list[tuple]]:
    spec = RatioSpec(1.0, ratio, alpha)
    header = ["x", "ccdf", "ccdf_via_stable"]
    rows = [(float(x), shotnoise.ratio_ccdf(float(x), spec),
             shotnoise.ratio_ccdf_via_stable(float(x), spec)) for x in xs]
    return header, rows


def run_laplace_dump(alpha: float, ratio: float, ss, max_terms: int = 200,
                     tol: float = 1e-12) -> tuple[list[str], list[tuple]]:
    spec = RatioSpec(1.0, ratio, alpha)
    ctrl = SeriesControl(max_terms=max_terms, tol=tol)
    header = ["s", "laplace"]
    rows = []
    for s in ss:
        try:
            value = shotnoise.ratio_laplace(float(s), spec, ctrl)
        except SeriesDivergenceError:
            value = float("nan")
        rows.append((float(s), value))
    return header, rows


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

def _levy_scale(density: float) -> float:
    """One-sided stable scale of the alpha = 4 shot noise: c = density^2 pi^3 / 2."""
    return density**2 * math.pi**3 / 2.0


def _levy_pdf(x, scale: float):
    """Density of the one-sided stable (Levy) law with the given scale."""
    y = np.asarray(x, dtype=float) / scale
    return 1 / np.sqrt(2 * np.pi * y) / y * np.exp(-1 / (2 * y)) / scale


def _levy_cdf(x, scale: float):
    """Distribution function of the one-sided stable (Levy) law: erfc(sqrt(c / 2x)).

    ``x`` is a 1-D array; erfc is ``math.erfc``, taken one element at a time.
    """
    z = np.sqrt(0.5 / (np.asarray(x, dtype=float) / scale))
    return np.array([math.erfc(v) for v in z.tolist()])


def _ks_distance(f) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance of a sample from a law,
    given the law's distribution function F at the sorted sample:
    max(i/n - F_i, F_i - (i-1)/n) over i = 1..n.
    """
    n = f.size
    return float(max(np.max(np.arange(1.0, n + 1) / n - f), np.max(f - np.arange(0.0, n) / n)))


@functools.lru_cache(maxsize=4)
def _smirnov_table(n: int):
    """j / n, n - j, j - 1 and log C(n, j) for j = 0..n, as read-only float
    arrays; log C(n, j) comes from ``math.lgamma``."""
    j = np.arange(n + 1.0)
    lg = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    table = (j / n, n - j, j - 1.0, lg[n] - lg - lg[::-1])
    for column in table:
        column.flags.writeable = False
    return table


def _smirnov(n: int, d: float) -> float:
    """One-sided KS tail P(D_n+ >= d) for n samples and 0 < d < 1, by the
    exact sum of Birnbaum & Tingey (Ann. Math. Stat. 22, 1951):

        d * sum_{j=0}^{floor(n(1-d))} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1).

    Every term is positive, so the sum, taken in log space, has no
    cancellation.  A term with 1 - d - j/n = 0 is 0 and is left out.
    """
    frac, n_minus_j, j_minus_1, log_binom = _smirnov_table(n)
    v = d + frac
    m = int(np.count_nonzero(v < 1.0))  # v rises with j: the terms kept come first
    v = v[:m]
    logs = log_binom[:m] + n_minus_j[:m] * np.log1p(-v) + j_minus_1[:m] * np.log(v)
    top = float(np.max(logs))
    return d * math.exp(top) * float(np.sum(np.exp(logs - top)))


@functools.lru_cache(maxsize=16)
def _ks_critical_1pct(n: int) -> float:
    """The 1% critical two-sided KS distance for n samples.

    The largest D that passes the test 2 * smirnov(n, D) > 0.01, found by
    bisection on [0, 1] down to one ulp: D passes and the next double up
    does not.  The one-sided tail falls as D grows, so this is
    smirnovi(n, 0.005).  Cached because the search costs about 12 ms at
    n = 20000 on a 2-vCPU Xeon.
    """
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if 2.0 * _smirnov(n, mid) > 0.01:
            lo = mid
        else:
            hi = mid


def _ks_2samp_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    two empirical distribution functions, read at every pooled sample.

    The gaps are counted exactly in units of 1 / lcm(n1, n2), so the result
    is the distance rounded once.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    g = math.gcd(a.size, b.size)
    gaps = (np.searchsorted(a, pooled, side="right") * (b.size // g)
            - np.searchsorted(b, pooled, side="right") * (a.size // g))
    return int(np.max(np.abs(gaps))) / (a.size // g * b.size)


def _ccdf_limit(est: Estimate) -> float:
    """Three-sigma limit on |estimate - closed form| for a Bernoulli estimate.

    At an estimate of 0 or 1 the sample stderr is 0, so the limit is the
    z = 3 Wilson-score bound 9 / (n + 9) instead (Brown, Cai & DasGupta,
    Stat. Sci. 2001); at every other estimate it is 3 * stderr.
    """
    if 0.0 < est.mean < 1.0:
        return 3.0 * est.stderr
    return 9.0 / (est.trials + 9.0)


def _pipeline_job(config: ExperimentConfig):
    """The closed CCDF and the stable-law pipeline agree to 1e-10."""
    worst = 0.0
    for alpha in (2.5, 3.0, 3.5, 4.0, 5.0):
        for rho in (0.1, 0.5, 1.0, 2.0, 10.0):
            spec = RatioSpec(1.0, rho, alpha)
            for x in np.geomspace(0.05, 50.0, 8):
                worst = max(worst, abs(shotnoise.ratio_ccdf(float(x), spec)
                                       - shotnoise.ratio_ccdf_via_stable(float(x), spec)))
    return worst < 1e-10, f"max gap {worst:.3e}"


def _mc_ratio_job(config: ExperimentConfig):
    """The closed CCDF against the point-process simulator."""
    mc_tol = config.mc_tol
    use_fixed_tol = not math.isnan(mc_tol)
    worst_gap, worst_lim = 0.0, float("inf")
    ok = True
    for alpha, rho in ((3.0, 0.5), (4.0, 2.0)):
        spec = RatioSpec(0.005, 0.005 * rho, alpha)
        cfg = config.trial_config()
        ests = simulate.ratio_ccdf_estimates([0.5, 2.0, 8.0], spec, cfg)
        for x, est in zip([0.5, 2.0, 8.0], ests):
            closed = shotnoise.ratio_ccdf(x, spec)
            gap = abs(est.mean - closed)
            limit = mc_tol if use_fixed_tol else _ccdf_limit(est)
            if gap > limit:
                ok = False
            if gap - limit > worst_gap - worst_lim:
                worst_gap, worst_lim = gap, limit
    return ok, f"worst gap {worst_gap:.2e} vs limit {worst_lim:.2e}"


def _bound_ordering_job(config: ExperimentConfig):
    """Bound ordering around the expectation form, and the alpha = 4 bounds in order."""
    ok = True
    detail = ""
    batch = config.batch()
    for alpha in (3.0, 4.0):
        for theta in (1.0, 5.0):
            for a_k in (0.2, 0.5, 0.8):
                scenario = Scenario(
                    zipf_remainder_profile(a_k, 10), alpha, theta, config.helper_density)
                mid = delivery.conditional_delivery_prob(0, scenario, batch)
                low = delivery.delivery_lower_bound(a_k, theta, alpha, batch)
                up = delivery.delivery_upper_bound(a_k, theta, alpha)
                slack = 3.0 * math.hypot(mid.stderr, low.stderr)
                if not (low.mean - slack <= mid.mean <= up + 3.0 * mid.stderr):
                    ok = False
                    detail = (f"violated at alpha={alpha} theta={theta} a={a_k}: "
                              f"{low.mean:.4f} / {mid.mean:.4f} / {up:.4f}")
    b = delivery.alpha4_bounds(np.linspace(0.05, 0.95, 10)[:, None], [0.5, 2.0, 5.0, 20.0])
    a4_ok = bool(np.all((b.lower_b <= b.lower_a + 1e-12) & (b.lower_a <= b.upper + 1e-12)))
    return ok and a4_ok, detail or "sandwich and alpha4 order hold"


def _levy_job(config: ExperimentConfig):
    """One-sided stable oracle for the alpha = 4 shot noise.

    The KS test passes at the 1% level: its p-value 2 * smirnov(n, D) is the
    one the exact two-sided distribution gives for n > 140 and
    2.2 <= n D^2 < 370; below that band both pass, above it both fail.
    """
    density = 1.0 / math.pi
    scale = _levy_scale(density)
    xs = np.geomspace(10.0, 1000.0, 13)
    rel = max(abs(shotnoise.shot_noise_pdf(float(x), density, 4.0)
                  / _levy_pdf(x, scale) - 1.0) for x in xs)
    samples = simulate.shot_noise_samples(
        density, 4.0, config.trial_config(trials=min(config.trials, 20000)))
    d_levy = _ks_distance(_levy_cdf(np.sort(samples), scale))
    d_levy_crit = _ks_critical_1pct(samples.size)
    return (rel < 0.01 and d_levy <= d_levy_crit,
            f"pdf rel err {rel:.2e}, KS distance {d_levy:.4f} vs 1% critical {d_levy_crit:.4f}")


def _fading_job(config: ExperimentConfig):
    """The two fading representations of the aligned SIR agree in law.

    The complex sampler runs before the exponential one in this one job, so
    at most one complex-mode chunk is alive at a time.
    """
    scenario = Scenario.from_zipf(10, 1.0, config.theta, 3.0, config.helper_density)
    n_ks = 10000
    s_complex = simulate.sir_samples_aligned(
        scenario, 0, config.trial_config(trials=n_ks), mode="complex")
    s_expo = simulate.sir_samples_aligned(
        scenario, 0, config.trial_config(trials=n_ks, seed=config.seed + 1),
        mode="exponential")
    d_stat = _ks_2samp_distance(s_complex, s_expo)
    d_crit = _KS_COEFF_1PCT * math.sqrt(2.0 / n_ks)
    return d_stat < d_crit, f"KS distance {d_stat:.4f} vs 1% critical {d_crit:.4f}"


def _partition_job(config: ExperimentConfig):
    """Bit-identical estimates under repetition and under 3-way partitioning."""
    spec = RatioSpec(0.01, 0.01, 3.0)
    cfg = config.trial_config(trials=min(config.trials, 20000))
    ref = simulate.empirical_ratio_ccdf(2.0, spec, cfg)
    rep = simulate.empirical_ratio_ccdf(2.0, spec, cfg)
    par = simulate.empirical_ratio_ccdf(2.0, spec, replace(cfg, partitions=3))
    return (ref == rep == par,
            f"mean {ref.mean:.9g} reproduced under repetition and 3-way partitioning")


def _window_job(config: ExperimentConfig):
    """Doubling the window at alpha = 3 and at alpha = 4 moves each estimate
    by less than one combined stderr, or not at all; both exponents read one
    draw.  A pair of equal estimates passes even at stderr 0: the coupled
    windows then agree on every trial, which a strict ``gap < stderr``
    would fail."""
    alphas = (3.0, 4.0)
    cfg = config.trial_config(trials=min(config.trials, 20000))
    pairs = simulate.window_doubling_probe(
        2.0, [RatioSpec(0.01, 0.02, alpha) for alpha in alphas], cfg)
    ok, details = True, []
    for alpha, (base, big) in zip(alphas, pairs):
        gap = abs(base.mean - big.mean)
        lim = math.hypot(base.stderr, big.stderr)
        ok = ok and (gap == 0.0 or gap < lim)
        details.append(f"alpha={alpha}: gap {gap:.2e} vs stderr {lim:.2e}")
    return ok, "; ".join(details)


#: The independent jobs of :func:`validate` in report order, each with the
#: check it serves: one job per check, whose ``(passed, detail)`` result is
#: the check's verdict.
_VALIDATION_JOBS = (
    ("pipeline_equivalence", _pipeline_job),
    ("mc_ratio_agreement", _mc_ratio_job),
    ("bound_ordering", _bound_ordering_job),
    ("levy_oracle", _levy_job),
    ("fading_form_equivalence", _fading_job),
    ("partition_determinism", _partition_job),
    ("window_doubling", _window_job),
)

#: The order a pool starts the jobs in, as indices into ``_VALIDATION_JOBS``:
#: longest first (window probe at both exponents, partition, fading, MC
#: ratio, Levy, bounds, pipeline), so that the jobs left for the end are
#: short ones.  The order cannot change the report.
_JOB_START_ORDER = (6, 5, 4, 1, 3, 2, 0)


def validate(config: ExperimentConfig):
    """Run the cross-validation suite; returns (all_passed, report_text).

    The checks' independent jobs are spread over ``config.partitions``
    threads, longest first; each job's own simulations run on its thread
    (``partitions=1``), and with one partition the jobs run in report order
    on the calling thread.  Every estimate comes from keyed substreams, so
    the report does not depend on ``partitions``; if jobs raise, the error
    of the earliest in report order propagates.  The report is
    deterministic for a given configuration (no timestamps), so identical
    invocations produce byte-identical output.
    """
    inner = replace(config, partitions=1)
    results = ordered_map(lambda job: job[1](inner), _VALIDATION_JOBS,
                          config.partitions, _JOB_START_ORDER)
    checks = [(name, passed, detail)
              for (name, _), (passed, detail) in zip(_VALIDATION_JOBS, results)]
    all_ok = all(passed for _, passed, _ in checks)
    lines = [f"# snratio validation report",
             f"# config_hash={config.hash()} seed={config.seed} trials={config.trials}"]
    for name, passed, detail in checks:
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    lines.append(f"{'ALL CHECKS PASSED' if all_ok else 'VALIDATION FAILED'} "
                 f"({sum(p for _, p, _ in checks)}/{len(checks)})")
    return all_ok, "\n".join(lines) + "\n"


def zipf_remainder_profile(a_top: float, n_files: int):
    """Profile with a chosen top weight and the remainder spread uniformly."""
    from .popularity import PopularityProfile

    if n_files < 2:
        raise ParameterDomainError("need at least two files")
    rest = (1.0 - a_top) / (n_files - 1)
    return PopularityProfile([a_top] + [rest] * (n_files - 1))
