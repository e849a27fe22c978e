"""Empirical verification of the paper's two theorems at scale."""

import numpy as np

from repro.core import (
    DecayReputation,
    fairness_coefficient,
    reward_shares_array,
    theorem1_fixed_point,
)

from conftest import emit, run_once


def _theorem1_trial(p_evil=0.35, gamma=0.1, steps=5000, seed=0):
    rng = np.random.default_rng(seed)
    rep = DecayReputation(gamma=gamma)
    vals = []
    for t in range(steps):
        rep.update(0, bool(rng.random() >= p_evil))
        if t > steps // 2:
            vals.append(rep.reputation(0))
    return float(np.mean(vals))


def bench_theorem1_reputation_fixed_point(benchmark):
    mean = run_once(benchmark, _theorem1_trial)
    emit(
        "Theorem 1: E[R] -> 1 - p",
        [f"p_evil=0.35 gamma=0.1: measured={mean:.4f} expected={theorem1_fixed_point(0.35):.4f}"],
    )
    assert abs(mean - 0.65) < 0.02


def _theorem2_trial(n=500, seed=0):
    rng = np.random.default_rng(seed)
    contribs = rng.uniform(0.01, 10.0, size=n)
    shares = reward_shares_array(np.full(n, 0.8), contribs)
    return fairness_coefficient(contribs, shares)


def bench_theorem2_fairness_coefficient(benchmark):
    cs = run_once(benchmark, _theorem2_trial)
    emit("Theorem 2: fairness coefficient", [f"C_s = {cs:.12f} (expected 1.0)"])
    assert abs(cs - 1.0) < 1e-9
