"""The block arrival sampler against one-worker population draws.

``sample_arrival_block`` stacks the linear algebra of many one-worker
draws (correlation check, covariance projection, SVD) while each worker
keeps its own generator.  The specification it replaces is one
``sample_learning_population(config, 1, ...)`` call per seed; the block
must equal it bit for bit — profiles, curve parameters and contaminated
behaviours alike — over the synthetic and real-world recipes, a
calibrated config, contaminated pools and a config so wide that rejection
sampling needs extra rounds or falls back to clipping.  CI also runs this
file under the ``deep`` hypothesis profile.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import SCENARIO_RECIPES, get_spec
from repro.stats.truncated import sample_truncated_mvn
from repro.workers.behavior import LearningWorker
from repro.workers.population import PopulationConfig, sample_arrival_block, sample_learning_population

CONTAMINATIONS = ("spammer", "adversarial", "fatigue", "sleeper", "drifter")


def named(dataset: str) -> PopulationConfig:
    return get_spec(dataset).population


def calibrated() -> PopulationConfig:
    return replace(
        named("S-2"),
        learning_mode="calibrated",
        learning_rate_correlation=0.6,
        initial_noise_std=0.3,
    )


def wide(std: float) -> PopulationConfig:
    """Prior domains far wider than the unit box: few draws land inside it."""
    return replace(named("S-1"), prior_means=(0.95, 0.05, 0.5), prior_stds=(std, std, std))


@st.composite
def configs(draw) -> PopulationConfig:
    kind = draw(st.sampled_from(["named", "contaminated", "calibrated", "wide"]))
    if kind == "named":
        return named(draw(st.sampled_from(["S-1", "S-2", "S-3", "S-1:drift40", "S-4:mixed20", "RW-1"])))
    if kind == "contaminated":
        # Over half the pool contaminated, so a one-worker pool is too.
        mix = dict(SCENARIO_RECIPES["mixed20"])
        dominant = draw(st.sampled_from(CONTAMINATIONS))
        mix[dominant] = mix.get(dominant, 0.0) + draw(st.floats(0.55, 0.7))
        return replace(named(draw(st.sampled_from(["S-4", "RW-1"]))), behavior_mix=mix)
    if kind == "calibrated":
        return calibrated()
    return wide(draw(st.floats(0.8, 40.0)))


def assert_same_worker(block, oracle) -> None:
    assert type(block) is type(oracle)
    assert block.profile.worker_id == oracle.profile.worker_id
    assert block.profile.accuracies == oracle.profile.accuracies
    assert block.profile.task_counts == oracle.profile.task_counts
    if isinstance(oracle, LearningWorker):
        assert block.initial_accuracy == oracle.initial_accuracy
        assert block.learning_rate == oracle.learning_rate
    assert block.curve_params() == oracle.curve_params()


@settings(deadline=None)
@given(
    config=configs(),
    seed=st.integers(0, 2**32 - 1),
    offset=st.integers(0, 200),
    count=st.integers(1, 70),
)
def test_block_equals_per_arrival_draws(config, seed, offset, count):
    seeds = [seed + index for index in range(count)]
    block = sample_arrival_block(config, seeds, id_prefix="mkt", id_offset=offset)
    assert len(block) == count
    for index, (worker, worker_seed) in enumerate(zip(block, seeds)):
        oracle = sample_learning_population(
            config, 1, rng=worker_seed, id_prefix="mkt", id_offset=offset + index
        )[0]
        assert_same_worker(worker, oracle)
        if sum((config.behavior_mix or {}).values()) > 0.5:
            assert not isinstance(worker, LearningWorker)


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``standard_normal`` calls (one per rejection round)."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.normal_calls = 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return super().standard_normal(*args, **kwargs)


def rounds_per_draw(config: PopulationConfig, n: int):
    """``standard_normal`` calls of ``n`` one-sample draws (201 = the clip fallback)."""
    model = config.accuracy_model(0)
    counts = []
    for seed in range(n):
        generator = CountingGenerator(seed)
        sample_truncated_mvn(model, 1, rng=generator)
        counts.append(generator.normal_calls)
    return counts


def test_wide_configs_take_extra_rounds_and_the_clip_fallback():
    assert max(rounds_per_draw(wide(0.8), 20)) > 1
    assert min(rounds_per_draw(wide(40.0), 5)) == 201
