#!/usr/bin/env python3
"""How much does aligning same-content transmissions buy, and when?

Helpers caching the same file transmit identically, so their signals
combine instead of interfering.  The benefit over conventional
nearest-helper service grows with the skew of the popularity profile:
with most requests going to one file, the network effectively broadcasts
it.  Both models run on the same simulated networks, so the gain's
standard error accounts for their correlation.  The closed-form
approximation tracks the simulated gain closely.
"""

from snratio import (
    Scenario,
    TrialConfig,
    alignment_gain_approx,
    simulate_totals,
)

N_FILES = 50
THETA = 5.0
ALPHA = 4.0

print(f"N={N_FILES} files, theta={THETA}, alpha={ALPHA}, helper density 0.1")
print(f"{'skew':>5} {'aligned':>9} {'baseline':>9} {'gain':>15} {'approx':>7}")
for gamma in (0.0, 1.0, 2.0, 3.0):
    scenario = Scenario.from_zipf(N_FILES, gamma, THETA, ALPHA, 0.1)
    cfg = TrialConfig(trials=20_000, seed=int(10 * gamma) + 1, tail_tol=1e-2)
    totals = simulate_totals(scenario, cfg)
    gain = f"{totals.gain.mean:.3f} +- {totals.gain.stderr:.3f}"
    approx = alignment_gain_approx(float(scenario.profile.weights[0]), THETA, ALPHA)
    print(f"{gamma:5.1f} {totals.aligned.mean:9.4f} {totals.baseline.mean:9.4f} "
          f"{gain:>15} {approx:7.2f}")

print("\nWith one file taking all requests the gain approaches 1 + mu(theta, alpha):")
print(f"  limit at a_1 -> 1: {alignment_gain_approx(1.0, THETA, ALPHA):.4f}")
