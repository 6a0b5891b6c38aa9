"""Pinned estimates: the exact bits of small simulator and delivery runs.

Every float below was recorded with ``float.hex`` and every sample array by
the SHA-256 of its bytes.  A refactor that keeps the random-number streams
must reproduce all of them exactly; a change that alters the streams on
purpose records new pins and says so in CHANGES.md.
"""

import hashlib
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
from snratio import delivery
from snratio.delivery import TOTAL_METHODS
from snratio.mc import Estimate
from snratio.simulate import window_doubling_probe

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
#: About 4 interferers per (trial, file) cell, too few to count per cell: the
#: aligned model draws a trial label per point.
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
            0.2, RatioSpec(0.02, 0.1, 3.5), _cfg(5000, p)),
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


PINS = {'conditional_alpha4': ('est', '0x1.ead05ca26d5f4p-6', '0x1.4abc855477392p-12', 3000, 7, 0),
        'conditional_expectation': ('est',
                                    '0x1.ead05ca26d607p-6',
                                    '0x1.4abc855477392p-12',
                                    3000,
                                    7,
                                    0),
        'conditional_series': ('est', '0x1.e8f084c92c551p-6', '0x1.ddea488d6dc1cp-14', 3000, 7, 0),
        'conditional_series_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'empirical_ratio_ccdf': ('est',
                                 '0x1.40ebedfa43fe6p-2',
                                 '0x1.adf8b9ecd645cp-8',
                                 5000,
                                 3,
                                 0),
        'inverse_g_moments': (('arr',
                               'float64',
                               (6,),
                               '82fe722a66904a01fadf8691d453d3427be937b71242d6739659ecf3f9dc7db5'),
                              ('arr',
                               'float64',
                               (6,),
                               '6eaee7de9f1c25a3c4e071dc165b14bac65d64f7ec2ab04f662a345fe01afe82')),
        'lower_bound': ('est', '0x1.d6962e553e0bap-6', '0x0.0p+0', 1, 7, 0),
        'ratio_ccdf_estimates': (('est', '0x1.0000000000000p+0', '0x0.0p+0', 9000, 3, 0),
                                 ('est',
                                  '0x1.4c584aa362881p-1',
                                  '0x1.49b4ca8aa4a41p-8',
                                  9000,
                                  3,
                                  0),
                                 ('est',
                                  '0x1.31612a8d8a205p-2',
                                  '0x1.3c0c34ff0afa5p-8',
                                  9000,
                                  3,
                                  0),
                                 ('est',
                                  '0x1.90f3f086b67fep-4',
                                  '0x1.9a97515ea931ep-9',
                                  9000,
                                  3,
                                  0)),
        'ratio_ccdf_estimates_resampled': (('est',
                                            '0x1.62c2551b1440ap-1',
                                            '0x1.3eaf8002bd780p-8',
                                            9000,
                                            3,
                                            0),
                                           ('est',
                                            '0x1.17702f54e0d33p-2',
                                            '0x1.33bc0523c9ebap-8',
                                            9000,
                                            3,
                                            0),
                                           ('est',
                                            '0x1.456789abcdf01p-4',
                                            '0x1.75a768bc0ea38p-9',
                                            9000,
                                            3,
                                            0)),
        'ratio_laplace_estimate': ('est',
                                   '0x1.ba001d9ba959bp-1',
                                   '0x1.a9ff81310e813p-9',
                                   5000,
                                   3,
                                   0),
        'ratio_samples': ('arr',
                          'float64',
                          (5000,),
                          'a04b18daa92d38a369e12f64d2b592f1b881734968db333b7260da1e35a08344'),
        'shot_noise_samples': ('arr',
                               'float64',
                               (5000,),
                               '39606020d9078818c35f0186312d1658511a64e5f9c55ba766bdee9301aece89'),
        'sir_aligned_complex_N1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 5000, 3, 0),
        'sir_aligned_complex_N5': ('est',
                                   '0x1.a3a29c779a6b5p-2',
                                   '0x1.c7da21fd58468p-8',
                                   5000,
                                   3,
                                   0),
        'sir_aligned_exponential_N1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 5000, 3, 0),
        'sir_aligned_exponential_N5': ('est',
                                       '0x1.a2c0c1408d3ccp-2',
                                       '0x1.5593bdfd23edep-8',
                                       5000,
                                       3,
                                       0),
        'sir_aligned_interference_region_only': ('est',
                                                 '0x1.602f209694850p-4',
                                                 '0x1.93e7939198533p-9',
                                                 5000,
                                                 3,
                                                 0),
        'sir_aligned_regions': ('est', '0x1.fa43fe5c91d15p-4', '0x1.3111ca5ffcbe1p-8', 5000, 3, 0),
        'sir_aligned_signal_region_only': ('est',
                                           '0x1.7f806eb1b150ep-3',
                                           '0x1.13eb20ce35a7dp-8',
                                           5000,
                                           3,
                                           0),
        'sir_baseline_N1': ('est', '0x1.1e826bd50297fp-1', '0x1.1f9ab217121cfp-8', 5000, 3, 0),
        'sir_baseline_N5': ('est', '0x1.0e2574afc1fe0p-2', '0x1.3a09912345cb7p-8', 5000, 3, 0),
        'sir_baseline_interference_region_only': ('est',
                                                  '0x1.16765789ea843p-3',
                                                  '0x1.f8f9ede6f9bebp-9',
                                                  5000,
                                                  3,
                                                  0),
        'sir_baseline_regions': ('est', '0x1.26403c82518cdp-4', '0x1.81c0e4e06be1ap-9', 5000, 3, 0),
        'sir_samples_aligned_complex': ('arr',
                                        'float64',
                                        (5000,),
                                        '328a27e21f2ecfcf32e3640a6a22a7f06e31459a0648f3ca080c8e3906de9ab1'),
        'sir_samples_aligned_exponential': ('arr',
                                            'float64',
                                            (5000,),
                                            '37d6c5a2b8775f456a4d4efdadbaf4658458a996ec88e2cc8bd198a492411348'),
        'sir_samples_aligned_interference_region_only': ('arr',
                                                         'float64',
                                                         (5000,),
                                                         '6a7a83a2bd07e951aec228271cec09ed133569803e7fac27c51fa12a61e43e73'),
        'sir_samples_baseline': ('arr',
                                 'float64',
                                 (5000,),
                                 '5176b875909a2f6d6de93b506b3cf32732207c56d68c15eaec803617752dee78'),
        'sir_samples_baseline_regions': ('arr',
                                         'float64',
                                         (5000,),
                                         '478347c6dab525f00a131be629b8754039ca311aa4e327fb14b9ded2bba78ca3'),
        'total_aligned_complex_N1': (('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0),
                                     ((0,
                                       ('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0)),)),
        'total_aligned_complex_N5': (('est',
                                      '0x1.fb38a94d242e8p-3',
                                      '0x1.6d3dad1d87f54p-8',
                                      6000,
                                      3,
                                      0),
                                     ((0,
                                       ('est',
                                        '0x1.90eeeb9a1b85dp-2',
                                        '0x1.3858c368d20ebp-7',
                                        2623,
                                        3,
                                        0)),
                                      (1,
                                       ('est',
                                        '0x1.9476c56abbc97p-3',
                                        '0x1.6d566f758e94bp-7',
                                        1276,
                                        3,
                                        0)),
                                      (2,
                                       ('est',
                                        '0x1.066091c3df33fp-3',
                                        '0x1.796ad7808bd4ap-7',
                                        843,
                                        3,
                                        0)),
                                      (3,
                                       ('est',
                                        '0x1.6dd245b74916ep-4',
                                        '0x1.65d8c8bdb7d80p-7',
                                        683,
                                        3,
                                        0)),
                                      (4,
                                       ('est',
                                        '0x1.0eb1324f3faa8p-4',
                                        '0x1.53c92301c5c75p-7',
                                        575,
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
                                          '0x1.ff2cf742eb1e9p-3',
                                          '0x1.1ed803d1a97cap-8',
                                          6000,
                                          3,
                                          0),
                                         ((0,
                                           ('est',
                                            '0x1.9c2b8ceae1cd1p-2',
                                            '0x1.d3594f7c7afeep-8',
                                            2623,
                                            3,
                                            0)),
                                          (1,
                                           ('est',
                                            '0x1.890a603c7ee8fp-3',
                                            '0x1.134f79d964ba2p-7',
                                            1276,
                                            3,
                                            0)),
                                          (2,
                                           ('est',
                                            '0x1.f09052b2f634bp-4',
                                            '0x1.2219fdf43b93bp-7',
                                            843,
                                            3,
                                            0)),
                                          (3,
                                           ('est',
                                            '0x1.56770310dba6bp-4',
                                            '0x1.097e879be2858p-7',
                                            683,
                                            3,
                                            0)),
                                          (4,
                                           ('est',
                                            '0x1.0bf3d631d77a9p-4',
                                            '0x1.050faa8310d40p-7',
                                            575,
                                            3,
                                            0)))),
        'total_alpha4_a4': ('est', '0x1.ea7c1a2fb4b4dp-6', '0x1.a6472c4ebe857p-17', 3000, 7, 0),
        'total_alpha4_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_baseline_N1': (('est', '0x1.224cdfbe565ccp-1', '0x1.07b965af8eb83p-8', 6000, 3, 0),
                              ((0,
                                ('est',
                                 '0x1.224cdfbe565ccp-1',
                                 '0x1.07b965af8eb83p-8',
                                 6000,
                                 3,
                                 0)),)),
        'total_baseline_N5': (('est', '0x1.6134ee2a9eff8p-3', '0x1.fd5be6bf19894p-9', 6000, 3, 0),
                              ((0,
                                ('est',
                                 '0x1.1136e505d18edp-2',
                                 '0x1.b4609daed6bfdp-8',
                                 2623,
                                 3,
                                 0)),
                               (1,
                                ('est',
                                 '0x1.1a8cf459603b5p-3',
                                 '0x1.fdf561a612fafp-8',
                                 1276,
                                 3,
                                 0)),
                               (2,
                                ('est', '0x1.8a22f3c10e9bap-4', '0x1.0ecc9bf66e584p-7', 843, 3, 0)),
                               (3,
                                ('est', '0x1.1d1aee1e1fed9p-4', '0x1.fe88a679ae4eap-8', 683, 3, 0)),
                               (4,
                                ('est',
                                 '0x1.aed336a7b099fp-5',
                                 '0x1.e5d6966dec293p-8',
                                 575,
                                 3,
                                 0)))),
        'total_baseline_a3': ('est', '0x1.ceeb22c56120bp-7', '0x0.0p+0', 1, 7, 0),
        'total_baseline_a4': ('est', '0x1.9bf87f86367d9p-6', '0x0.0p+0', 1, 7, 0),
        'total_baseline_n1': ('est', '0x1.1eab43493f7afp-2', '0x0.0p+0', 1, 7, 0),
        'total_expectation_a3': ('est', '0x1.1840c1815328dp-6', '0x1.7d1e9bb2f28eep-17', 3000, 7, 0),
        'total_expectation_a4': ('est', '0x1.ea7c1a2fb4b62p-6', '0x1.a6472c4ebe85ep-17', 3000, 7, 0),
        'total_expectation_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_lower_a3': ('est', '0x1.088f26bd322e9p-6', '0x0.0p+0', 1, 7, 0),
        'total_lower_a4': ('est', '0x1.d6962e553e0b9p-6', '0x0.0p+0', 1, 7, 0),
        'total_lower_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 1, 7, 0),
        'total_series_a3': ('est', '0x1.16ea1a25dbaefp-6', '0x1.330f5a7a5d32fp-14', 3000, 7, 0),
        'total_series_a4': ('est', '0x1.e8f367d5cedd8p-6', '0x1.bc4c8f4738227p-14', 3000, 7, 0),
        'total_series_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_upper_a3': ('est', '0x1.2be54f6e825bcp-5', '0x0.0p+0', 1, 7, 0),
        'total_upper_a4': ('est', '0x1.6214c1ee2397ep-5', '0x0.0p+0', 1, 7, 0),
        'total_upper_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 1, 7, 0),
        'window_doubling_probe': (('est',
                                   '0x1.1f559b3d07c85p-2',
                                   '0x1.a07450e1a3c6fp-8',
                                   5000,
                                   3,
                                   0),
                                  ('est',
                                   '0x1.1f212d77318fcp-2',
                                   '0x1.a05d20c8c9db1p-8',
                                   5000,
                                   3,
                                   0))}


@pytest.mark.parametrize("partitions", [1, 2])
@pytest.mark.parametrize("name", sorted(_simulator_cases(1)))
def test_simulator_estimate_is_pinned(name, partitions):
    assert _bits(_simulator_cases(partitions)[name]()) == PINS[name]


@pytest.mark.parametrize("name", sorted(_sample_cases()))
def test_samples_are_pinned(name):
    assert _bits(_sample_cases()[name]()) == PINS[name]


@pytest.mark.parametrize("chunk_cells", [None, 4000])
@pytest.mark.parametrize("name", sorted(_delivery_cases()))
def test_delivery_estimate_is_pinned(name, chunk_cells, monkeypatch):
    # 4000 cells splits the fading batch into several chunks per pass; that
    # may not change a bit.
    if chunk_cells is not None:
        monkeypatch.setattr(delivery, "_FADING_CHUNK_CELLS", chunk_cells)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", delivery.MomentReliabilityWarning)
        result = _delivery_cases()[name]()
    assert _bits(result) == PINS[name]
