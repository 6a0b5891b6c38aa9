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
#: the ratio denominator, empty at first.  The nearest-helper model redraws
#: those trials; an empty denominator is its tail mean alone (the pin
#: ``ratio_ccdf_estimates_resampled`` keeps the name of the redraw it once
#: exercised, and now pins ``resampled == 0``).
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
                                 '0x1.3333333333333p-2',
                                 '0x1.a8c3a93a60ecap-8',
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
                                  '0x1.4f5c28f5c28f6p-1',
                                  '0x1.48684eb92c6f8p-8',
                                  9000,
                                  3,
                                  0),
                                 ('est',
                                  '0x1.31440a032f8f2p-2',
                                  '0x1.3c03897015dd4p-8',
                                  9000,
                                  3,
                                  0),
                                 ('est',
                                  '0x1.97c790f3f086bp-4',
                                  '0x1.9db064b9e0272p-9',
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
                                   '0x1.ba4c05c5f8443p-1',
                                   '0x1.a919881d3b1c0p-9',
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
                                   '0x1.ad77318fc5048p-2',
                                   '0x1.c9650882f54e5p-8',
                                   5000,
                                   3,
                                   0),
        'sir_aligned_exponential_N1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 5000, 3, 0),
        'sir_aligned_exponential_N5': ('est',
                                       '0x1.a474b87234697p-2',
                                       '0x1.564a0eb7a560dp-8',
                                       5000,
                                       3,
                                       0),
        'sir_aligned_interference_region_only': ('est',
                                                 '0x1.787c57a396882p-4',
                                                 '0x1.a5e7131e84b57p-9',
                                                 5000,
                                                 3,
                                                 0),
        'sir_aligned_regions': ('est', '0x1.c1bda5119ce07p-4', '0x1.21ca3a7bf5110p-8', 5000, 3, 0),
        'sir_aligned_signal_region_only': ('est',
                                           '0x1.7ce4811010584p-3',
                                           '0x1.1229b78219cefp-8',
                                           5000,
                                           3,
                                           0),
        'sir_baseline_N1': ('est',
                            '0x1.22313afc827a0p-1',
                            '0x1.21a658b895279p-8',
                            5000,
                            3,
                            0),
        'sir_baseline_N5': ('est',
                            '0x1.15c50f45c9052p-2',
                            '0x1.3fe7b7e571d2ep-8',
                            5000,
                            3,
                            0),
        'sir_baseline_interference_region_only': ('est',
                                                  '0x1.26884f72f0b1dp-3',
                                                  '0x1.066930c946ff0p-8',
                                                  5000,
                                                  3,
                                                  0),
        'sir_baseline_regions': ('est',
                                 '0x1.365fcde14477cp-3',
                                 '0x1.0c74bd7f2169fp-8',
                                 5000,
                                 3,
                                 7205),
        'sir_samples_aligned_complex': ('arr',
                                        'float64',
                                        (5000,),
                                        '6964551c67c8e51d47a334444f6129b8f04b53cad3b0e0eb2b23972a0c2d9d08'),
        'sir_samples_aligned_exponential': ('arr',
                                            'float64',
                                            (5000,),
                                            '94a3ba04ce6870b34dab8ef42b8e8c7f7a3ae3bba4e372b881ace33f6eef48c7'),
        'sir_samples_aligned_interference_region_only': ('arr',
                                                         'float64',
                                                         (5000,),
                                                         '57796decff152e03b3a85a77f19a7e766a7936beef13cc6c0d66fb20ccf4849a'),
        'sir_samples_baseline': ('arr',
                                 'float64',
                                 (5000,),
                                 '32e40fb835eaac493b7bc956ae8810331cb83c9e79c6123360f421cee1cc781e'),
        'sir_samples_baseline_regions': ('arr',
                                         'float64',
                                         (5000,),
                                         '7c2b90f8957e8489f8d5eb08edef8435408ca0ba079e76bb421eed42f123fe37'),
        'total_aligned_complex_N1': (('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0),
                                     ((0,
                                       ('est', '0x1.0000000000000p+0', '0x0.0p+0', 6000, 3, 0)),)),
        'total_aligned_complex_N5': (('est',
                                      '0x1.f2015d867c3edp-3',
                                      '0x1.6afd0248eb421p-8',
                                      6000,
                                      3,
                                      0),
                                     ((0,
                                       ('est',
                                        '0x1.9152dc606d4f6p-2',
                                        '0x1.38669ddcf38f6p-7',
                                        2623,
                                        3,
                                        0)),
                                      (1,
                                       ('est',
                                        '0x1.7f99476c56abcp-3',
                                        '0x1.660a70ae68ddbp-7',
                                        1276,
                                        3,
                                        0)),
                                      (2,
                                       ('est',
                                        '0x1.ab93e40fca8d8p-4',
                                        '0x1.5949a7abb113ap-7',
                                        843,
                                        3,
                                        0)),
                                      (3,
                                       ('est',
                                        '0x1.7fd005ff40180p-4',
                                        '0x1.6da7dc60d7ccbp-7',
                                        683,
                                        3,
                                        0)),
                                      (4,
                                       ('est',
                                        '0x1.1cf06ada2811dp-4',
                                        '0x1.5bf6854a5808dp-7',
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
                                          '0x1.f4baaf2c9a5e8p-3',
                                          '0x1.1a853fe865583p-8',
                                          6000,
                                          3,
                                          0),
                                         ((0,
                                           ('est',
                                            '0x1.94ddd90246e06p-2',
                                            '0x1.cf98d1660e641p-8',
                                            2623,
                                            3,
                                            0)),
                                          (1,
                                           ('est',
                                            '0x1.7d969519311d9p-3',
                                            '0x1.0c5260ebae2ddp-7',
                                            1276,
                                            3,
                                            0)),
                                          (2,
                                           ('est',
                                            '0x1.a8558c5375e7ep-4',
                                            '0x1.ff7b41e4b3436p-8',
                                            843,
                                            3,
                                            0)),
                                          (3,
                                           ('est',
                                            '0x1.7565ed3341fdbp-4',
                                            '0x1.1e08c522c91d1p-7',
                                            683,
                                            3,
                                            0)),
                                          (4,
                                           ('est',
                                            '0x1.2f2ffb933f587p-4',
                                            '0x1.13f6c57d8ec40p-7',
                                            575,
                                            3,
                                            0)))),
        'total_alpha4_a4': ('est', '0x1.ea7c1a2fb4b4dp-6', '0x1.a6472c4ebe857p-17', 3000, 7, 0),
        'total_alpha4_n1': ('est', '0x1.0000000000000p+0', '0x0.0p+0', 3000, 7, 0),
        'total_baseline_N1': (('est',
                               '0x1.1eca3fc6aa71bp-1',
                               '0x1.0912b51dc3106p-8',
                               6000,
                               3,
                               0),
                              ((0,
                                ('est',
                                 '0x1.1eca3fc6aa71bp-1',
                                 '0x1.0912b51dc3106p-8',
                                 6000,
                                 3,
                                 0)),)),
        'total_baseline_N5': (('est',
                               '0x1.4e421715ffae8p-3',
                               '0x1.ecef082719a26p-9',
                               6000,
                               3,
                               0),
                              ((0,
                                ('est',
                                 '0x1.01deb5262e560p-2',
                                 '0x1.ab8b8650623e5p-8',
                                 2623,
                                 3,
                                 0)),
                               (1,
                                ('est',
                                 '0x1.0e8b5f3c3a416p-3',
                                 '0x1.e8d2643ee74c9p-8',
                                 1276,
                                 3,
                                 0)),
                               (2,
                                ('est',
                                 '0x1.3fc4b00f844eep-4',
                                 '0x1.cbc41f6b3586bp-8',
                                 843,
                                 3,
                                 0)),
                               (3,
                                ('est',
                                 '0x1.2d0e2dd96b9c2p-4',
                                 '0x1.0bb3ee5f5da8dp-7',
                                 683,
                                 3,
                                 0)),
                               (4,
                                ('est',
                                 '0x1.e6a61f86ba8b6p-5',
                                 '0x1.005d635cb0a31p-7',
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
