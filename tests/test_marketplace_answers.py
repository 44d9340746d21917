"""The batched marketplace answer and prestudy draws against their scalar form.

``Marketplace.answer`` draws one campaign-tick's answers in one call, and
``Marketplace.admit_arrivals`` one tick's prestudy in one block.  The
scalar form (``scalar_answer`` in ``tests/oracles/answers.py``, and the
per-arrival prestudy below) is the specification they replace: one
stream seed, one counter-based uniform and one ``accuracy_at`` per vote
(per question for the prestudy).  The batched draws must equal it bit for bit over
mixed behaviours, starting counts, repeated workers and off-target
domains.  CI also runs this file under the ``deep`` hypothesis profile.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.answers import scalar_answer
from repro.datasets.registry import get_spec
from repro.marketplace.orchestrator import (
    ARRIVAL_BLOCK,
    ARRIVAL_PREFIX,
    Marketplace,
    MarketplaceConfig,
    MarketWorker,
)
from repro.platform.tasks import Task, TaskKind
from repro.serving.pool import ServingWorker
from repro.serving.qualification import QualificationTier
from repro.stats.rng import counter_uniforms, derive_seed, stream_seeds, token_hashes
from repro.workers.behavior import (
    DrifterWorker,
    LearningWorker,
    SpammerWorker,
    StaticWorker,
    WorkerBehavior,
)
from repro.workers.population import sample_learning_population
from repro.workers.profile import WorkerProfile

TARGET = "target"
DOMAINS = (TARGET, "prior-a", "unknown")
CAMPAIGNS = ("alpha", "beta")


class ScalarOnlyWorker(WorkerBehavior):
    """A behaviour without a batched curve: the accuracy matrix falls back to ``accuracy_at``."""

    def __init__(self, profile: WorkerProfile, base: float) -> None:
        super().__init__(profile)
        self._base = base

    def curve_params(self) -> Dict[str, float]:
        return {}

    def accuracy_at(self, exposure: float) -> float:
        return self._base + 0.4 * np.sin(exposure)


def make_behavior(kind: str, worker_id: str, a: float, b: float):
    profile = WorkerProfile(worker_id)
    if kind == "learning":
        return LearningWorker(profile, initial_accuracy=0.05 + 0.9 * a, learning_rate=2.0 * b - 0.5)
    if kind == "static":
        return StaticWorker(profile, target_accuracy=a)
    if kind == "spammer":
        return SpammerWorker(profile)
    if kind == "drifter":
        return DrifterWorker(profile, initial_accuracy=a, drifted_accuracy=b, drift_exposure=20.0 * b)
    if kind == "scalar":
        return ScalarOnlyWorker(profile, base=0.3 + 0.4 * a)
    return None


worker_specs = st.lists(
    st.tuples(
        st.sampled_from(["learning", "static", "spammer", "drifter", "scalar", "none"]),
        st.floats(0.0, 1.0),  # curve parameter a
        st.floats(0.0, 1.0),  # curve parameter b / prior-domain accuracy
        st.integers(0, 300),  # exposure offset (training questions)
        st.tuples(st.integers(0, 40), st.integers(0, 40)),  # starting counts per campaign
    ),
    min_size=1,
    max_size=6,
)


def build_market(specs, seed: int) -> Marketplace:
    market = Marketplace(MarketplaceConfig(), get_spec("S-1").population, seed=seed)
    for index, (kind, a, b, offset, counts) in enumerate(specs):
        worker_id = f"w{index}"
        market.workers[worker_id] = MarketWorker(
            worker_id=worker_id,
            serving=ServingWorker(worker_id=worker_id, qualifications={}),
            origin="arrival",
            home=None,
            accuracies={TARGET: a, "prior-a": b},
            target_domain=TARGET,
            behavior=make_behavior(kind, worker_id, a, b),
            exposure_offset=float(offset),
            answer_counts={campaign: count for campaign, count in zip(CAMPAIGNS, counts) if count},
        )
    return market


@st.composite
def market_and_batches(draw):
    specs = draw(worker_specs)
    n_workers = len(specs)
    vote = st.tuples(st.integers(0, n_workers - 1), st.sampled_from(DOMAINS), st.booleans())
    batches = draw(st.lists(st.tuples(st.sampled_from(CAMPAIGNS), st.lists(vote, max_size=8)), max_size=6))
    # At least one batch holds the same worker twice.
    repeat = draw(st.integers(0, n_workers - 1))
    batches.append((draw(st.sampled_from(CAMPAIGNS)), [(repeat, TARGET, True), (repeat, TARGET, False)]))
    return specs, batches, draw(st.integers(0, 2**32 - 1))


@given(market_and_batches())
def test_batched_answer_equals_scalar_oracle(case):
    specs, batches, seed = case
    market = build_market(specs, seed)
    answer_seed = derive_seed(seed, "marketplace", "answers")
    counts: Dict[Tuple[str, str], int] = {
        (worker_id, campaign): worker.answer_counts.get(campaign, 0)
        for worker_id, worker in market.workers.items()
        for campaign in CAMPAIGNS
    }
    for number, (campaign, votes) in enumerate(batches):
        due = [
            (f"w{index}", Task(f"t{number}-{row}", domain, TaskKind.WORKING, gold))
            for row, (index, domain, gold) in enumerate(votes)
        ]
        expected: List[bool] = []
        for worker_id, task in due:
            count = counts[worker_id, campaign]
            expected.append(scalar_answer(answer_seed, market.workers[worker_id], count, task, campaign))
            counts[worker_id, campaign] = count + 1
        assert market.answer(campaign, due) == expected
    for (worker_id, campaign), count in counts.items():
        assert market.workers[worker_id].answer_counts.get(campaign, 0) == count


@st.composite
def arrival_counts(draw) -> List[int]:
    """Per-tick arrival counts; often one tick over ``ARRIVAL_BLOCK``, which crosses a block boundary."""
    counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    if draw(st.booleans()):
        large = draw(st.integers(ARRIVAL_BLOCK + 1, ARRIVAL_BLOCK + 6))
        counts.insert(draw(st.integers(0, len(counts))), large)
    return counts


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dataset=st.sampled_from(["S-1", "S-2", "S-1:drift40", "S-1:mixed20", "RW-1"]),
    questions=st.integers(1, 20),
    arrivals=arrival_counts(),
)
def test_batched_prestudy_equals_per_arrival_scalar_form(seed, dataset, questions, arrivals):
    population = get_spec(dataset).population
    config = MarketplaceConfig(prestudy_questions=questions)
    market = Marketplace(config, population, seed=seed)
    policy = config.qualification
    prestudy_seed = derive_seed(seed, "marketplace", "prestudy")
    index = 0
    for tick, count in enumerate(arrivals):
        events = market.admit_arrivals(tick, count)
        assert len(events) == count
        for event in events:
            behavior = sample_learning_population(
                population,
                1,
                rng=derive_seed(seed, "marketplace", "arrival", index),
                id_prefix=ARRIVAL_PREFIX,
                id_offset=index,
            )[0]
            index += 1
            gid = behavior.profile.worker_id
            uniforms = counter_uniforms(stream_seeds(prestudy_seed, token_hashes([gid])), questions)[0]
            correct = sum(int(uniforms[i] < behavior.accuracy_at(float(i))) for i in range(questions))
            observed = correct / questions
            tier = policy.qualify(observed, questions)
            assert event == {
                "worker_id": gid,
                "observed": observed,
                "tier": tier.name.lower(),
                "admitted": tier > QualificationTier.UNQUALIFIED,
            }
            assert event["admitted"] == (gid in market.workers)
            if event["admitted"]:
                admitted = market.workers[gid]
                assert admitted.accuracies == {
                    population.target_domain: behavior.accuracy_at(float(questions)),
                    **behavior.profile.accuracies,
                }
                assert type(admitted.behavior) is type(behavior)
                assert admitted.behavior.curve_params() == behavior.curve_params()
