"""Quality contract of the paper's method on a reduced Table V.

A change to the CPE update that alters its floating-point output cannot be
checked by byte identity.  This contract checks what the paper claims
instead: over fixed seeds, ``ours`` keeps its rank against the four
baselines, and its mean selected-worker accuracy on each dataset stays
within the seed spread measured for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import METHOD_ORDER, ExperimentConfig
from repro.experiments.table5 import PAPER_TABLE_V, run_table5

DATASETS = ("RW-1", "S-1", "S-3")
REPETITIONS = 4
BASE_SEED = 7

#: Mean accuracy of ``ours`` and its standard deviation over the
#: ``REPETITIONS`` seeds, measured with the finite-difference CPE gradient.
MEASURED_OURS = {
    "RW-1": (0.7322, 0.0254),
    "S-1": (0.7304, 0.0634),
    "S-3": (0.8191, 0.0572),
}


@pytest.fixture(scope="module")
def results():
    config = ExperimentConfig(n_repetitions=REPETITIONS, base_seed=BASE_SEED)
    return run_table5(list(DATASETS), config)


def test_ours_ranks_first_on_every_dataset(results):
    for dataset in DATASETS:
        means = {method: results[dataset].mean_accuracy(method) for method in METHOD_ORDER}
        assert max(means, key=means.get) == "ours", (dataset, means)
        # The rank the paper reports for the same dataset.
        paper = {method: PAPER_TABLE_V[dataset][method] for method in METHOD_ORDER}
        assert max(paper, key=paper.get) == "ours"


def test_ours_ranks_first_averaged_over_datasets(results):
    pooled = {
        method: float(np.mean([results[dataset].mean_accuracy(method) for dataset in DATASETS]))
        for method in METHOD_ORDER
    }
    assert max(pooled, key=pooled.get) == "ours", pooled


@pytest.mark.parametrize("dataset", DATASETS)
def test_ours_mean_accuracy_within_measured_seed_spread(results, dataset):
    measured_mean, measured_std = MEASURED_OURS[dataset]
    accuracies = results[dataset].method_accuracies["ours"]
    assert len(accuracies) == REPETITIONS
    assert abs(float(np.mean(accuracies)) - measured_mean) <= measured_std
