"""The benchmark's workloads: what each runs, its output rows and its checks.

Every workload is built from a seed alone (``build``).  ``run`` does the
timed work and returns an :class:`Outcome`; ``check`` then judges that
outcome outside the timed (and traced) region, because some checks call
the package again.  Building is cheap: it only creates the configs and
scenarios, so the set-up time the benchmark reports is dominated by
importing ``snratio`` with numpy and scipy.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import dataclass, field

from snratio import delivery, experiments
from snratio.delivery import FadingBatch, Scenario
from snratio.errors import MomentReliabilityWarning, SeriesDivergenceError


@dataclass
class Outcome:
    """What one repeat of a workload produced.

    ``rows`` is the deterministic output the digest covers; ``results``
    holds what ``check`` needs beyond the rows.
    """

    rows: list
    stderrs: list[float]
    results: list = field(default_factory=list)
    moment_warnings: int = 0
    digest: str = field(init=False)

    def __post_init__(self):
        self.digest = hashlib.sha256(repr(self.rows).encode()).hexdigest()


class SimSweep:
    """``experiments.run_figure5`` at its defaults but for the skew grid.

    A row is inside its limit when the closed-form gain is within 10% of
    the simulated gain or within three standard errors of it, whichever is
    wider.  At 20 000 trials the N = 500 rows at low skew carry Monte Carlo
    errors larger than 10%, so a flat 10% rule would fail on noise alone.
    The rows are judged together: the closed form sits about 1.4 standard
    errors below the simulated gain at N = 5, gamma = 0 (40 seeds), so at
    three sigma a correct program puts that row outside for about 1% of
    seeds, while two rows at once is far rarer.
    """

    name = "sim_sweep"
    rows_outside_allowed = 1
    #: Four of fig5's seven skews.  The full grid takes about 21 s a repeat
    #: on a 2-vCPU machine, too long for 22 runs of at least two repeats to
    #: fit the benchmark's time budget beside the other workloads.
    gamma_grid = (0.0, 1.0, 2.0, 3.0)

    def __init__(self, seed: int, **overrides):
        self.seed = seed
        overrides.setdefault("gamma_grid", self.gamma_grid)
        self.config = experiments.ExperimentConfig(seed=seed, **overrides)

    def params(self) -> dict:
        return {k: getattr(self.config, k) for k in (
            "fig5_n_files", "fig5_alpha", "theta", "gamma_grid", "trials",
            "helper_density", "tail_tol", "partitions", "sim_mode", "seed")}

    def run(self) -> Outcome:
        _, rows = experiments.run_figure5(self.config)
        return Outcome(rows, [row[4] for row in rows])

    def check(self, outcome: Outcome) -> list[tuple[str, bool]]:
        outside = [f"gamma={gamma} N={n_files}"
                   for gamma, _, n_files, gain, gain_err, approx, _ in outcome.rows
                   if abs(approx - gain) > max(0.10 * gain, 3.0 * gain_err)]
        return [(f"fig5 rows with |approx-gain| > max(10% of gain, 3 sd): {len(outside)} of "
                 f"{len(outcome.rows)} ({', '.join(outside) or 'none'}), at most "
                 f"{self.rows_outside_allowed} allowed",
                 len(outside) <= self.rows_outside_allowed)]


class ClosedSweep:
    """Every ``total_delivery_prob`` method on the fig4 grid, no simulation.

    Also runs fig3's per-file ``alpha4_bounds`` loop at alpha = 4.  Series
    divergence is an outcome of the scenario, recorded as a row; it is not
    a failed check.
    """

    name = "closed_sweep"
    alphas = (3.0, 4.0)
    theta = 5.0
    helper_density = 0.1

    def __init__(self, seed: int, n_files: int = 80, samples: int = 10_000,
                 gamma_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)):
        self.seed = seed
        self.batch = FadingBatch(samples, seed=seed)
        self.scenarios = [((gamma, alpha), Scenario.from_zipf(n_files, gamma, self.theta, alpha,
                                                              self.helper_density))
                          for gamma in gamma_grid for alpha in self.alphas]
        self._params = {"n_files": n_files, "batch_samples": samples, "gamma_grid": gamma_grid,
                        "alphas": self.alphas, "theta": self.theta,
                        "helper_density": self.helper_density,
                        "methods": delivery.TOTAL_METHODS, "seed": seed}

    def params(self) -> dict:
        return dict(self._params)

    def run(self) -> Outcome:
        rows, stderrs, results = [], [], []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", MomentReliabilityWarning)
            for (gamma, alpha), scenario in self.scenarios:
                est = {}
                for method in delivery.TOTAL_METHODS:
                    if method == "alpha4" and alpha != 4.0:
                        continue
                    try:
                        e = delivery.total_delivery_prob(scenario, method, self.batch)
                    except SeriesDivergenceError:
                        rows.append((gamma, alpha, method, "diverged"))
                        continue
                    est[method] = e
                    rows.append((gamma, alpha, method, e.mean, e.stderr))
                    if method in ("expectation", "alpha4", "lower"):
                        stderrs.append(e.stderr)
                bounds_ok = None
                if alpha == 4.0:
                    totals, bounds_ok = self._alpha4_bounds(scenario)
                    rows += [(gamma, alpha) + t for t in totals]
                results.append((gamma, alpha, scenario, est, bounds_ok))
        warned = sum(issubclass(w.category, MomentReliabilityWarning) for w in caught)
        return Outcome(rows, stderrs, results, moment_warnings=warned)

    def _alpha4_bounds(self, scenario):
        """fig3's per-file loop: popularity-weighted alpha = 4 lower bounds."""
        w = scenario.profile.weights
        tot_a = tot_b = 0.0
        ok = True
        for k in range(scenario.n_files):
            b = delivery.alpha4_bounds(float(w[k]), self.theta)
            # Same 1e-12 slack as the bound_ordering check of the validation suite.
            ok &= b.lower_b <= b.lower_a + 1e-12 and b.lower_a <= b.upper + 1e-12
            tot_a += w[k] * b.lower_a
            tot_b += w[k] * b.lower_b
        return [("a4_lower_a", float(tot_a)), ("a4_lower_b", float(tot_b))], ok

    def _lower_total_stderr(self, scenario) -> float:
        """Standard error of the lower-bound total that holds under common draws.

        Every file's lower bound is averaged over the same fading draws, so
        the per-file errors are correlated and their weighted sum can have
        up to sqrt(N) times the stderr that ``total_delivery_prob`` reports
        (it adds the per-file terms in quadrature).  The weighted sum of
        per-file stderrs bounds it for any correlation.
        """
        w, th = scenario.profile.weights, scenario.thresholds
        return sum(w[k] * delivery.delivery_lower_bound(float(w[k]), float(th[k]),
                                                        scenario.alpha, self.batch).stderr
                   for k in range(scenario.n_files))

    def check(self, outcome: Outcome) -> list[tuple[str, bool]]:
        checks = []
        for gamma, alpha, scenario, est, bounds_ok in outcome.results:
            exp, low, up = est["expectation"], est["lower"], est["upper"]
            where = f"gamma={gamma} alpha={alpha}"
            low_sd = math.hypot(self._lower_total_stderr(scenario), exp.stderr)
            checks.append((f"{where}: lower - 3sd <= expectation <= upper + 3sd",
                           low.mean - 3.0 * low_sd <= exp.mean <= up.mean + 3.0 * exp.stderr))
            if "alpha4" in est:
                a4 = est["alpha4"]
                checks.append((f"{where}: alpha4 == expectation within 3 combined sd",
                               abs(a4.mean - exp.mean)
                               <= 3.0 * math.hypot(a4.stderr, exp.stderr)))
            if "series" in est:
                checks.append((f"{where}: converged series within 10% of expectation",
                               abs(est["series"].mean - exp.mean) <= 0.10 * exp.mean))
            if bounds_ok is not None:
                checks.append((f"gamma={gamma}: alpha4_bounds lower_b <= lower_a <= upper",
                               bounds_ok))
        return checks


class ValidateSuite:
    """``experiments.validate`` for consecutive seeds on mc's thread pool.

    The report's deterministic lines must pass for every seed.  Its Monte
    Carlo lines are hypothesis tests at fixed levels (3-sigma limits on six
    CCDF points, KS tests at 1%), so a correct program fails one of them for
    a few percent of seeds; 80 seeds gave 2 ``mc_ratio_agreement`` FAILs.
    Those lines are judged together: at about 3.6% per seed in total, three
    or more FAILs among three seeds have probability below 0.01%.  Three
    seeds, not more, keep a run of this workload short enough for the
    benchmark's 70 runs to fit their time budget.
    """

    name = "validate_suite"
    statistical = ("mc_ratio_agreement", "levy_oracle", "fading_form_equivalence",
                   "window_doubling")
    statistical_fails_allowed = 2

    def __init__(self, seed: int, count: int = 3, **overrides):
        self.seed = seed
        self.configs = [experiments.ExperimentConfig(seed=s, partitions=2, **overrides)
                        for s in range(seed, seed + count)]

    def params(self) -> dict:
        c = self.configs[0]
        return {"seeds": [cfg.seed for cfg in self.configs], "partitions": c.partitions,
                "trials": c.trials, "batch_samples": c.batch_samples, "theta": c.theta,
                "tail_tol": c.tail_tol}

    def run(self) -> Outcome:
        reports, verdicts, stderrs = [], [], []
        for config in self.configs:
            all_ok, report = experiments.validate(config)
            reports.append(report)
            verdicts.append(all_ok)
            stderrs += report_stderrs(report)
        return Outcome(reports, stderrs, verdicts)

    def check(self, outcome: Outcome) -> list[tuple[str, bool]]:
        checks, stat_lines, stat_fails = [], 0, []
        for config, report, all_ok in zip(self.configs, outcome.rows, outcome.results):
            lines = [ln for ln in report.splitlines() if ln.startswith(("PASS ", "FAIL "))]
            for line in lines:
                verdict, name = line.split(":", 1)[0].split(" ", 1)
                if name in self.statistical:
                    stat_lines += 1
                    if verdict == "FAIL":
                        stat_fails.append(f"seed={config.seed} {name}")
                else:
                    checks.append((f"seed={config.seed} {name}", verdict == "PASS"))
            checks.append((f"seed={config.seed} report verdict matches its checks",
                           all_ok == all(ln.startswith("PASS ") for ln in lines) and bool(lines)))
        checks.append((f"statistical lines: {len(stat_fails)} of {stat_lines} FAIL "
                       f"({', '.join(stat_fails) or 'none'}), at most "
                       f"{self.statistical_fails_allowed} allowed",
                       len(stat_fails) <= self.statistical_fails_allowed))
        return checks


def report_stderrs(report: str) -> list[float]:
    """Standard errors of the simulator estimates a validation report prints.

    ``validate`` returns only its report text, so the figures are read from
    it: the window-doubling check prints one combined standard error per
    path-loss exponent, to three significant figures.  The ratio-CCDF
    check's limit is left out: it belongs to whichever point has the
    largest gap, so which standard error it shows depends on the noise.
    """
    return [float(x) for x in re.findall(r"vs stderr ([0-9.eE+-]+)", report)]


WORKLOADS = {w.name: w for w in (SimSweep, ClosedSweep, ValidateSuite)}


def build(name: str, seed: int):
    return WORKLOADS[name](seed)
