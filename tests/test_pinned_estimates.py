"""Pinned estimates: the exact bits of small simulator and delivery runs.

Every float below was recorded with ``float.hex`` and every sample array by
the SHA-256 of its bytes.  A refactor that keeps the random-number streams
must reproduce all of them exactly; a change that alters the streams on
purpose records new pins and says so in CHANGES.md.  The first test pins the
keyed substream itself, so a change of generator or of numpy's stream fails
it by name before any estimate pin; the second pins the per-trial summation
order of the shot-noise kernels.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest

from snratio import (
    DiskRegion,
    FadingBatch,
    RatioSpec,
    Scenario,
    TrialConfig,
    conditional_delivery_prob,
    conditional_delivery_prob_alpha4,
    conditional_delivery_prob_series,
    delivery_lower_bound,
    empirical_ratio_ccdf,
    inverse_g_moments,
    ratio_ccdf_estimates,
    ratio_laplace_estimate,
    ratio_samples,
    shot_noise_samples,
    simulate_sir_aligned,
    simulate_sir_baseline,
    simulate_total_aligned,
    simulate_total_baseline,
    sir_samples_aligned,
    sir_samples_baseline,
    total_delivery_prob,
)
from snratio import delivery, experiments
from snratio.delivery import TOTAL_METHODS
from snratio.mc import Estimate, substream
from snratio.simulate import _trial_sums, window_doubling_probe

SCENARIOS = {
    1: Scenario.from_zipf(1, 0.0, 1.0, 4.0, 0.1),
    5: Scenario.from_zipf(5, 1.0, 1.0, 4.0, 0.1),
}
#: Small explicit windows: many trials find the requested file's process, or
#: the ratio denominator, empty.  The SIR geometry draws the requested file's
#: nearest point first, inside the signal disk or beyond it; an empty
#: denominator is its tail mean alone.  Neither redraws a trial, so every
#: pin has ``resampled == 0`` (``ratio_ccdf_estimates_resampled`` keeps the
#: name of the redraw it once exercised).
SPEC = RatioSpec(0.02, 0.1, 3.0)
SMALL_RATIO_REGIONS = (DiskRegion(3.0), DiskRegion(1.5))
SMALL_SIR_REGIONS = (DiskRegion(2.0), DiskRegion(12.0))
#: About 4 interferers per (trial, file) cell, where the default windows hold
#: about 30.
SPARSE_INTERFERENCE_REGION = DiskRegion(8.0)
#: Series converge at every file: without warnings at alpha = 4, with
#: flagged inverse moments at alpha = 3.
SERIES_SCENARIOS = {
    "a4": Scenario.from_zipf(8, 0.0, 10.0, 4.0, 0.1),
    "a3": Scenario.from_zipf(10, 0.0, 5.0, 3.0, 0.1),
    "n1": Scenario.from_zipf(1, 0.0, 5.0, 4.0, 0.1),
}
BATCH = FadingBatch(3000, seed=7)


def _cfg(trials, partitions=1):
    return TrialConfig(trials=trials, seed=3, tail_tol=1e-2, partitions=partitions)


def _bits(result):
    """Exact, comparable form of an estimate, an array, or a nest of them."""
    if isinstance(result, Estimate):
        return ("est", float(result.mean).hex(), float(result.stderr).hex(),
                result.trials, result.seed, result.resampled)
    if isinstance(result, np.ndarray):
        arr = np.ascontiguousarray(result)
        return ("arr", str(arr.dtype), arr.shape, hashlib.sha256(arr.tobytes()).hexdigest())
    if isinstance(result, dict):
        return tuple((k, _bits(v)) for k, v in sorted(result.items()))
    if isinstance(result, (list, tuple)):
        return tuple(_bits(v) for v in result)
    if isinstance(result, (int, np.integer)):
        return int(result)
    raise TypeError(f"cannot pin {type(result).__name__}")


def _simulator_cases(partitions):
    p = partitions
    cases = {}
    for n in (1, 5):
        sc = SCENARIOS[n]
        for mode in ("exponential", "complex"):
            cases[f"total_aligned_{mode}_N{n}"] = (
                lambda sc=sc, mode=mode: simulate_total_aligned(
                    sc, _cfg(6000, p), mode=mode, return_strata=True))
            cases[f"sir_aligned_{mode}_N{n}"] = (
                lambda sc=sc, mode=mode: simulate_sir_aligned(
                    sc, 0, _cfg(5000, p), mode=mode))
        cases[f"total_baseline_N{n}"] = (
            lambda sc=sc: simulate_total_baseline(sc, _cfg(6000, p), return_strata=True))
        cases[f"sir_baseline_N{n}"] = (
            lambda sc=sc: simulate_sir_baseline(sc, 0, _cfg(5000, p)))
    sc = SCENARIOS[5]
    cases.update({
        "sir_aligned_regions": lambda: simulate_sir_aligned(
            sc, 2, _cfg(5000, p), "complex", DiskRegion(15.0), DiskRegion(20.0)),
        "sir_aligned_signal_region_only": lambda: simulate_sir_aligned(
            sc, 1, _cfg(5000, p), signal_region=DiskRegion(15.0)),
        "sir_aligned_interference_region_only": lambda: simulate_sir_aligned(
            sc, 3, _cfg(5000, p), interference_region=SPARSE_INTERFERENCE_REGION),
        "sir_baseline_regions": lambda: simulate_sir_baseline(
            sc, 3, _cfg(5000, p), *SMALL_SIR_REGIONS),
        "sir_baseline_interference_region_only": lambda: simulate_sir_baseline(
            sc, 1, _cfg(5000, p), interference_region=DiskRegion(12.0)),
        "ratio_ccdf_estimates": lambda: ratio_ccdf_estimates(
            [0.0, 0.05, 0.2, 1.0], SPEC, _cfg(9000, p)),
        "ratio_ccdf_estimates_resampled": lambda: ratio_ccdf_estimates(
            [0.05, 0.2, 1.0], SPEC, _cfg(9000, p), *SMALL_RATIO_REGIONS),
        "empirical_ratio_ccdf": lambda: empirical_ratio_ccdf(0.2, SPEC, _cfg(5000, p)),
        "window_doubling_probe": lambda: window_doubling_probe(
            0.2, [RatioSpec(0.02, 0.1, 3.5)], _cfg(5000, p))[0],
    })
    return cases


def _sample_cases():
    sc = SCENARIOS[5]
    return {
        "shot_noise_samples": lambda: shot_noise_samples(0.1, 4.0, _cfg(5000)),
        "ratio_samples": lambda: ratio_samples(SPEC, _cfg(5000), *SMALL_RATIO_REGIONS),
        "ratio_laplace_estimate": lambda: ratio_laplace_estimate(0.5, SPEC, _cfg(5000)),
        "sir_samples_aligned_exponential": lambda: sir_samples_aligned(sc, 1, _cfg(5000)),
        "sir_samples_aligned_complex": lambda: sir_samples_aligned(
            sc, 1, _cfg(5000), mode="complex"),
        "sir_samples_aligned_interference_region_only": lambda: sir_samples_aligned(
            sc, 3, _cfg(5000), mode="complex",
            interference_region=SPARSE_INTERFERENCE_REGION),
        "sir_samples_baseline": lambda: sir_samples_baseline(sc, 4, _cfg(5000)),
        "sir_samples_baseline_regions": lambda: sir_samples_baseline(
            sc, 3, _cfg(5000), *SMALL_SIR_REGIONS),
    }


def _delivery_cases():
    cases = {}
    for key, sc in SERIES_SCENARIOS.items():
        for method in TOTAL_METHODS:
            if method == "alpha4" and sc.alpha != 4.0:
                continue
            cases[f"total_{method}_{key}"] = (
                lambda sc=sc, method=method: total_delivery_prob(sc, method, BATCH))
    sc = SERIES_SCENARIOS["a4"]
    a_1 = float(sc.profile.weights[1])
    cases.update({
        "conditional_expectation": lambda: conditional_delivery_prob(1, sc, BATCH),
        "conditional_alpha4": lambda: conditional_delivery_prob_alpha4(1, sc, BATCH),
        "conditional_series": lambda: conditional_delivery_prob_series(1, sc, 60, BATCH),
        "conditional_series_n1": lambda: conditional_delivery_prob_series(
            0, SERIES_SCENARIOS["n1"], 60, BATCH),
        "lower_bound": lambda: delivery_lower_bound(a_1, 10.0, 4.0, BATCH),
        "inverse_g_moments": lambda: inverse_g_moments(sc.profile, 1, 4.0, BATCH, 6),
    })
    return cases


PINS = {'conditional_alpha4': ('est', '0x1.e99a3915c7fc9p-6', '0x1.41cc1f4633995p-12', 3000, 7, 0),
        'conditional_expectation': ('est',
                                    '0x1.e99a3915c7fc9p-6',
                                    '0x1.41cc1f4633995p-12',
                                    3000,
                                    7,
                                    0),
        'conditional_series': ('est', '0x1.ea961751876fep-6', '0x1.e9c49a8070966p-14', 3000, 7, 0),
        'conditional_series_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'empirical_ratio_ccdf': ('est', '0x1.35a858793dd98p-2', '0x1.a9ba700265d09p-8', 5000, 3, 0),
        'inverse_g_moments': (('arr',
                               'float64',
                               (6,),
                               '54c991607f3f9f2317c611b3e664eb2e856d5e192c1ac1ef42a92577c547b818'),
                              ('arr',
                               'float64',
                               (6,),
                               '8b59b9d76de3c1a0eff75787f083ac0d555968601836b2d3643794ba4633252d')),
        'lower_bound': ('est', '0x1.d6962e553e0bap-6', '0x0.0p+0', 1, 7, 0),
        'ratio_ccdf_estimates': (('est', '0x1.0000000000000p+0', '0x0.0p+0', 9000, 3, 0),
                                 ('est',
                                  '0x1.5070de181ef29p-1',
                                  '0x1.47eda5fd70c1ep-8',
                                  9000,
                                  3,
                                  0),
                                 ('est',
                                  '0x1.35225c6336d74p-2',
                                  '0x1.3d27226b3466ap-8',
                                  9000,
                                  3,
                                  0),
                                 ('est',
                                  '0x1.884e4773d3663p-4',
                                  '0x1.969d4a0a4bec0p-9',
                                  9000,
                                  3,
                                  0)),
        'ratio_ccdf_estimates_resampled': (('est',
                                            '0x1.64b17e4b17e4bp-1',
                                            '0x1.3d94e675f6ab6p-8',
                                            9000,
                                            3,
                                            0),
                                           ('est',
                                            '0x1.1abcdf0123456p-2',
                                            '0x1.34dbfbf88b3f4p-8',
                                            9000,
                                            3,
                                            0),
                                           ('est',
                                            '0x1.62fc962fc9630p-4',
                                            '0x1.84bc208d9b171p-9',
                                            9000,
                                            3,
                                            0)),
        'ratio_laplace_estimate': ('est',
                                   '0x1.bc471c569b73fp-1',
                                   '0x1.9e19ff50af995p-9',
                                   5000,
                                   3,
                                   0),
        'ratio_samples': ('arr',
                          'float64',
                          (5000,),
                          '96da1dcf6b5fa0222c95f7a84f8c40c586b1620ab05955a9c602688fd2989891'),
        'shot_noise_samples': ('arr',
                               'float64',
                               (5000,),
                               '8039184578e83f81bd70228033bf49a308719c164529983278f941b23931e13a'),
        'sir_aligned_complex_N1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 5000, 3, 0),
        'sir_aligned_complex_N5': ('est',
                                   '0x1.9f212d77318fcp-2',
                                   '0x1.c715cdf2f77dbp-8',
                                   5000,
                                   3,
                                   0),
        'sir_aligned_exponential_N1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 5000, 3, 0),
        'sir_aligned_exponential_N5': ('est',
                                       '0x1.9df3d8a076a54p-2',
                                       '0x1.54f7174b55b31p-8',
                                       5000,
                                       3,
                                       0),
        'sir_aligned_interference_region_only': ('est',
                                                 '0x1.5a3b552f1501ep-4',
                                                 '0x1.933d47843be19p-9',
                                                 5000,
                                                 3,
                                                 0),
        'sir_aligned_regions': ('est', '0x1.da5119ce075f7p-4', '0x1.289908298e537p-8', 5000, 3, 0),
        'sir_aligned_signal_region_only': ('est',
                                           '0x1.85c5fff404034p-3',
                                           '0x1.16ffa3d82ea5ep-8',
                                           5000,
                                           3,
                                           0),
        'sir_baseline_N1': ('est', '0x1.1e802222723aep-1', '0x1.23eaf790ae514p-8', 5000, 3, 0),
        'sir_baseline_N5': ('est', '0x1.12d1224cd5588p-2', '0x1.3da9ebe17e6d7p-8', 5000, 3, 0),
        'sir_baseline_interference_region_only': ('est',
                                                  '0x1.0d695a5c0a881p-3',
                                                  '0x1.f017eafd7b93bp-9',
                                                  5000,
                                                  3,
                                                  0),
        'sir_baseline_regions': ('est', '0x1.215c47299c46bp-4', '0x1.82c6fea0f2aa7p-9', 5000, 3, 0),
        'sir_samples_aligned_complex': ('arr',
                                        'float64',
                                        (5000,),
                                        '9059bd69ec2043c02cf1d815d1bc50637a0876cbebdcd5fc14d246c18b1ffae5'),
        'sir_samples_aligned_exponential': ('arr',
                                            'float64',
                                            (5000,),
                                            'b92be1b84c0394ebb2c44f37c5607f9d63a190b26c68d1d0ae78d41df71bcae6'),
        'sir_samples_aligned_interference_region_only': ('arr',
                                                         'float64',
                                                         (5000,),
                                                         'f49164d4304364a0785e5cc9a758674cdd5868033ba94ebc068a67a5f9868d8e'),
        'sir_samples_baseline': ('arr',
                                 'float64',
                                 (5000,),
                                 'b9e1a84c2053b1e355b71a78228c52c35684103f2363e510bf3b74337bfbe650'),
        'sir_samples_baseline_regions': ('arr',
                                         'float64',
                                         (5000,),
                                         '412c603b872de86dc64f93395c17948f27f0cae54c49d3a3987dbff2cae6c596'),
        'total_aligned_complex_N1': (('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0),
                                     ((0,
                                       ('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0)),)),
        'total_aligned_complex_N5': (('est',
                                      '0x1.07ae147ae147bp-2',
                                      '0x1.71faaee171de0p-8',
                                      6000,
                                      3,
                                      0),
                                     ((0,
                                       ('est',
                                        '0x1.9df73ac31811fp-2',
                                        '0x1.39ce7692c4c2ep-7',
                                        2627,
                                        3,
                                        0)),
                                      (1,
                                       ('est',
                                        '0x1.b6db6db6db6dbp-3',
                                        '0x1.6ee4eb35532f7p-7',
                                        1344,
                                        3,
                                        0)),
                                      (2,
                                       ('est',
                                        '0x1.0610fc5c35624p-3',
                                        '0x1.7900b26484366p-7',
                                        844,
                                        3,
                                        0)),
                                      (3,
                                       ('est',
                                        '0x1.308ef4bc04a96p-4',
                                        '0x1.4f21859b90755p-7',
                                        659,
                                        3,
                                        0)),
                                      (4,
                                       ('est',
                                        '0x1.27e8a3874ce5bp-4',
                                        '0x1.723e13493e35cp-7',
                                        526,
                                        3,
                                        0)))),
        'total_aligned_exponential_N1': (('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0),
                                         ((0,
                                           ('est',
                                            '0x1.0000000000000p+0',
                                            '0x0.0p+0',
                                            6000,
                                            3,
                                            0)),)),
        'total_aligned_exponential_N5': (('est',
                                          '0x1.071527fb39e73p-2',
                                          '0x1.229c969a7f740p-8',
                                          6000,
                                          3,
                                          0),
                                         ((0,
                                           ('est',
                                            '0x1.a14c514dae782p-2',
                                            '0x1.d5bba89ecf776p-8',
                                            2627,
                                            3,
                                            0)),
                                          (1,
                                           ('est',
                                            '0x1.9d63b13873ea5p-3',
                                            '0x1.11378122f397cp-7',
                                            1344,
                                            3,
                                            0)),
                                          (2,
                                           ('est',
                                            '0x1.0bbee54edc445p-3',
                                            '0x1.3077766395f24p-7',
                                            844,
                                            3,
                                            0)),
                                          (3,
                                           ('est',
                                            '0x1.6003f5caeda9bp-4',
                                            '0x1.14175608530cep-7',
                                            659,
                                            3,
                                            0)),
                                          (4,
                                           ('est',
                                            '0x1.fd17782c87fc2p-5',
                                            '0x1.126938010ae0ep-7',
                                            526,
                                            3,
                                            0)))),
        'total_alpha4_a4': ('est', '0x1.e9e993a7d1767p-6', '0x1.a7aa714996319p-17', 3000, 7, 0),
        'total_alpha4_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_baseline_N1': (('est', '0x1.202b4c7725a24p-1', '0x1.08a0d1355a39fp-8', 6000, 3, 0),
                              ((0,
                                ('est',
                                 '0x1.202b4c7725a24p-1',
                                 '0x1.08a0d1355a39fp-8',
                                 6000,
                                 3,
                                 0)),)),
        'total_baseline_N5': (('est', '0x1.6d9074439a24bp-3', '0x1.02866c5581cadp-8', 6000, 3, 0),
                              ((0,
                                ('est',
                                 '0x1.1472da8b73866p-2',
                                 '0x1.b650fa4061e12p-8',
                                 2627,
                                 3,
                                 0)),
                               (1,
                                ('est',
                                 '0x1.31114bb579a1fp-3',
                                 '0x1.fb478634ee9eap-8',
                                 1344,
                                 3,
                                 0)),
                               (2,
                                ('est', '0x1.b3f55338e78a7p-4', '0x1.2072658246007p-7', 844, 3, 0)),
                               (3,
                                ('est', '0x1.17e67a8c4b146p-4', '0x1.025356444b82ap-7', 659, 3, 0)),
                               (4,
                                ('est',
                                 '0x1.a00fc2351def1p-5',
                                 '0x1.028c9cd0a1042p-7',
                                 526,
                                 3,
                                 0)))),
        'total_baseline_a3': ('est', '0x1.ceeb22c56120bp-7', '0x0.0p+0', 1, 7, 0),
        'total_baseline_a4': ('est', '0x1.9bf87f86367d9p-6', '0x0.0p+0', 1, 7, 0),
        'total_baseline_n1': ('est', '0x1.1eab43493f7afp-2', '0x0.0p+0', 1, 7, 0),
        'total_expectation_a3': ('est', '0x1.17edf461da85cp-6', '0x1.8381323282adcp-17', 3000, 7, 0),
        'total_expectation_a4': ('est', '0x1.e9e993a7d1767p-6', '0x1.a7aa714996319p-17', 3000, 7, 0),
        'total_expectation_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_lower_a3': ('est', '0x1.088f26bd322e6p-6', '0x0.0p+0', 1, 7, 0),
        'total_lower_a4': ('est', '0x1.d6962e553e0b9p-6', '0x0.0p+0', 1, 7, 0),
        'total_lower_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 1, 7, 0),
        'total_series_a3': ('est', '0x1.18d56dc4eb7fep-6', '0x1.3c0941647ab08p-14', 3000, 7, 0),
        'total_series_a4': ('est', '0x1.eab53a63ffdc9p-6', '0x1.caf7ff063dedfp-14', 3000, 7, 0),
        'total_series_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_upper_a3': ('est', '0x1.2be54f6e825bcp-5', '0x0.0p+0', 1, 7, 0),
        'total_upper_a4': ('est', '0x1.6214c1ee2397ep-5', '0x0.0p+0', 1, 7, 0),
        'total_upper_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 1, 7, 0),
        'window_doubling_probe': (('est',
                                   '0x1.28f5c28f5c28fp-2',
                                   '0x1.a498ec26cca30p-8',
                                   5000,
                                   3,
                                   0),
                                  ('est',
                                   '0x1.28f5c28f5c28fp-2',
                                   '0x1.a498ec26cca30p-8',
                                   5000,
                                   3,
                                   0))}


def test_substream_is_keyed_sfc64():
    assert isinstance(substream(3, 0).bit_generator, np.random.SFC64)
    first = substream(3, 0).random(3)
    assert np.array_equal(first, substream(3, 0).random(3))
    for other in (substream(3, 1), substream(4, 0)):
        assert not np.any(first == other.random(3))
    assert [[float(u).hex() for u in substream(3, i).random(3)] for i in (0, 1)] == [
        ["0x1.41b9a3fe3c337p-1", "0x1.b5ed5d6d6798bp-1", "0x1.91843d42d6c21p-1"],
        ["0x1.48a7220673970p-4", "0x1.7cbbafd0264b8p-2", "0x1.3f0a61a7e94aep-2"],
    ]


def test_trial_sums_are_segmented_pairwise_sums():
    # Trials of 0, 5, 200 and 0 points: an empty trial, one under numpy's
    # 8-way unrolled block and one over its 128-point pairwise block.  The
    # 200-point sum differs in its last bits from a sequential one.
    counts = np.array([0, 5, 200, 0])
    values = 1.0 / np.arange(1.0, counts.sum() + 1.0)
    sums = _trial_sums(values, counts)
    assert sums.dtype == np.float64
    assert [float(s).hex() for s in sums] == [
        "0x0.0p+0", "0x1.2444444444444p+1", "0x1.cf462f287aa6bp+1", "0x0.0p+0"]
    ends = np.cumsum(counts)
    for s, lo, hi in zip(sums, ends - counts, ends):
        assert s == pytest.approx(math.fsum(values[lo:hi]), rel=1e-14, abs=0.0)
    assert np.array_equal(_trial_sums(np.zeros(0), np.zeros(3, dtype=np.int64)), np.zeros(3))


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize("name", sorted(_simulator_cases(1)))
def test_simulator_estimate_is_pinned(name, partitions):
    assert _bits(_simulator_cases(partitions)[name]()) == PINS[name]


@pytest.mark.parametrize("name", sorted(_sample_cases()))
def test_samples_are_pinned(name):
    assert _bits(_sample_cases()[name]()) == PINS[name]


@pytest.mark.parametrize("chunk_cells", [None, 4000, 777])
@pytest.mark.parametrize("name", sorted(_delivery_cases()))
def test_delivery_estimate_is_pinned(name, chunk_cells, monkeypatch):
    # 4000 cells splits the fading batch into several chunks per pass, and
    # 777 into chunks of 77 or 97 rows, shorter than one of the kernel's row
    # blocks; neither may change a bit.
    if chunk_cells is not None:
        monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", chunk_cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", delivery.MomentReliabilityWarning)
        result = _delivery_cases()[name]()
    assert _bits(result) == PINS[name]


#: SHA-256 of the ``validate`` report at 4000 trials, by seed.  The report
#: must not depend on the number of threads its jobs run on.
VALIDATE_REPORT_PINS = {
    1: "3f0d2d92fe56519f2820e63bab62f35469c57c7337c267458e2935aaaf700f26",
    2: "52b90a134062f98fdc61aa87d0802621f79cfed56f9bd4a85bdfcf2c62c0846a",
    3: "50f9888b453eb481234ba9323a1c5e49c84a993e651cfcfbc5d245c5f8f74365",
}


@pytest.mark.parametrize("partitions", [1, 3])
@pytest.mark.parametrize("seed", sorted(VALIDATE_REPORT_PINS))
def test_validate_report_is_pinned(seed, partitions):
    config = experiments.ExperimentConfig(trials=4000, seed=seed, partitions=partitions)
    passed, report = experiments.validate(config)
    assert passed
    assert hashlib.sha256(report.encode()).hexdigest() == VALIDATE_REPORT_PINS[seed]
