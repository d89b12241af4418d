"""Ablation A3 — speedup versus dataset size (DESIGN.md §3 and §4).

The central scaling argument of the reproduction: the adaptive algorithms'
sample complexity is (nearly) independent of N while the exact scan costs
Θ(hN), so SWOPE's advantage *grows* with N. The paper's 10–117× factors at
3.7M–33.7M rows correspond to the top end of this curve; our scaled
datasets sit lower on it. This bench measures the curve directly: the
cells-scanned ratio exact/SWOPE at increasing N on the cdc analogue.
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.core.swope import swope_top_k_entropy
from repro.synth.datasets import load_dataset

SCALES = (0.05, 0.1, 0.2, 0.4)

#: Populated across parametrised runs so the final case can assert the
#: monotone-growth claim end-to-end.
_speedups: dict[float, float] = {}


@pytest.mark.parametrize("scale", SCALES)
def test_ablation_scaling_speedup_grows_with_n(benchmark, scale):
    dataset = load_dataset("cdc", scale=scale)
    store = dataset.store

    def run():
        return swope_top_k_entropy(store, 4, epsilon=0.1, sequential=True)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    exact_cells = store.num_attributes * store.num_rows
    speedup = exact_cells / max(1, result.stats.cells_scanned)
    _speedups[scale] = speedup
    benchmark.extra_info["rows"] = store.num_rows
    benchmark.extra_info["cells_scanned"] = result.stats.cells_scanned
    benchmark.extra_info["speedup_vs_exact"] = round(speedup, 1)
    if scale == SCALES[-1] and len(_speedups) == len(SCALES):
        ordered = [_speedups[s] for s in SCALES]
        # The speedup at the largest N must dominate the smallest N's —
        # the shape claim behind extrapolating to the paper's 31M rows.
        assert ordered[-1] > ordered[0]
