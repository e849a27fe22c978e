"""Ablation: raw inner-product vs cosine-normalized detection scores.

DESIGN.md ablation #1: Eq. 6's raw score scales with gradient magnitude
(so S_y must be re-tuned per task and training stage) while the cosine
score is scale-free; and a sign-flipped gradient sits at exactly -1 in
cosine regardless of intensity.
"""

import numpy as np

from repro.core import detection_scores_matrix

from conftest import emit, run_once


def server_score(bench, candidate, mode):
    """One server's score S_i^j of a (non-server) worker's slice."""
    return float(detection_scores_matrix(
        np.array([1]), candidate[None, :], np.array([0, candidate.size]),
        np.array([0]), np.array([0]), [bench], mode,
    )[0])


def _sweep():
    rng = np.random.default_rng(0)
    bench = rng.normal(size=2000)
    honest = bench + 0.3 * rng.normal(size=2000)
    rows = {}
    for p_s in (1.0, 4.0, 16.0):
        flipped = -p_s * honest
        rows[p_s] = {
            "raw_honest": server_score(bench, honest, "raw"),
            "raw_flipped": server_score(bench, flipped, "raw"),
            "cos_honest": server_score(bench, honest, "cosine"),
            "cos_flipped": server_score(bench, flipped, "cosine"),
        }
    return rows


def bench_ablation_detection_score_modes(benchmark):
    rows = run_once(benchmark, _sweep)
    emit(
        "Ablation: detection score modes",
        [
            f"p_s={p:>5.1f}  raw(honest)={r['raw_honest']:>10.1f}  "
            f"raw(flip)={r['raw_flipped']:>11.1f}  "
            f"cos(honest)={r['cos_honest']:.4f}  cos(flip)={r['cos_flipped']:.4f}"
            for p, r in rows.items()
        ],
    )
    cos_flip = [r["cos_flipped"] for r in rows.values()]
    raw_flip = [r["raw_flipped"] for r in rows.values()]
    # cosine is intensity-invariant; raw scales linearly with intensity
    assert np.allclose(cos_flip, cos_flip[0], atol=1e-12)
    assert abs(raw_flip[2]) > 10 * abs(raw_flip[0])
