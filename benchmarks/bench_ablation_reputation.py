"""Ablation: Eq. 10 time-decay reputation vs classic period-based SLM.

The paper extends the subjective logic model with a time-decay factor so
that "older events carry smaller weights while recent events are given
larger weights" (S4.2). This bench shows why: tracking a worker that
suddenly turns malicious after a long honest history, the decay estimator
flags it within ~1/gamma rounds while cumulative SLM (all events weighted
equally) drags its 50 rounds of banked trust for ~4x longer.
"""

import numpy as np

from repro.core import DecayReputation

from conftest import emit, run_once

TURN_ROUND = 50
TOTAL = 100


def _sweep(gamma=0.2):
    # one table holds both estimators: the Eq. 10 value and the Eq. 8-9
    # counts, cumulative here (the period is never reset)
    table = DecayReputation(gamma=gamma, slm_alphas=(1.0, 1.0, 1.0))
    decay_curve, slm_curve = [], []
    for t in range(TOTAL):
        honest = t < TURN_ROUND  # worker turns malicious at TURN_ROUND
        slm_curve.append(table.update(0, honest))
        decay_curve.append(table.reputation(0))

    def rounds_to_distrust(curve):
        for i in range(TURN_ROUND, TOTAL):
            if curve[i] < 0.5:
                return i - TURN_ROUND + 1
        return TOTAL - TURN_ROUND

    return {
        "decay_lag": rounds_to_distrust(decay_curve),
        "slm_lag": rounds_to_distrust(slm_curve),
        "decay_final": decay_curve[-1],
        "slm_final": slm_curve[-1],
    }


def bench_ablation_reputation_estimators(benchmark):
    result = run_once(benchmark, _sweep)
    emit(
        "Ablation: decay (Eq. 10) vs period-SLM reputation",
        [
            f"rounds to flag the turncoat: decay={result['decay_lag']}, "
            f"slm={result['slm_lag']}",
            f"final reputation: decay={result['decay_final']:.3f}, "
            f"slm={result['slm_final']:.3f}",
        ],
    )
    # the decay estimator reacts much faster than cumulative SLM
    assert result["decay_lag"] * 2 <= result["slm_lag"]
    # and both eventually converge on distrust
    assert result["decay_final"] < 0.1
    assert result["slm_final"] < 0.1
