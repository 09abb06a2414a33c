"""Recover SDE parameters from simulated hourly PV samples.

Simulates 100 hours at the 30 s sampling step for a cloudy regime,
identifies each hour independently, and prints the averaged estimates
next to the generating values.
"""

import numpy as np

from pvsde import SdeParams, identify_hour, simulate_hour

TRUTH = SdeParams(0.2095, 0.5496, 0.1946, 0.1263, 0.9930)
NAMES = ("a", "b", "beta", "c", "d")


def main():
    rng = np.random.default_rng(2)
    # Start away from the reverting level so the transient excites the drift.
    u = rng.uniform(0.05, 0.35, 100)
    p0 = TRUTH.c + (TRUTH.d - TRUTH.c) * u
    sim = simulate_hour(TRUTH, p0, step_seconds=30.0, n_steps=120, rng=rng)
    paths = np.vstack([p0[None, :], sim])
    est = np.array([identify_hour(paths[:, j], seed=4242 + j).params
                    for j in range(paths.shape[1])])
    mean_est = est.mean(axis=0)
    truth = TRUTH.as_array()
    print(f"{'param':<6} {'truth':>8} {'estimate':>9} {'rel err':>8}")
    for i, name in enumerate(NAMES):
        denom = abs(truth[i]) if abs(truth[i]) > 1e-9 else TRUTH.d - TRUTH.c
        print(f"{name:<6} {truth[i]:8.4f} {mean_est[i]:9.4f} "
              f"{abs(mean_est[i] - truth[i]) / denom:8.3f}")


if __name__ == "__main__":
    main()
