"""Target-domain tasks and the task bank.

Definition 1 of the paper splits the target-domain tasks ``T`` into learning
tasks ``T_l`` (golden questions whose answers are revealed to workers after
submission) and working tasks ``T_w`` (no gold label available to the
platform at selection time; used to evaluate the selected workers).

The reproduction uses Yes/No questions like the paper's surveys; each task
carries a gold label so the simulator can score answers, but the selection
algorithms only ever see correctness on *learning* tasks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.stats.rng import SeedLike, as_generator


class TaskKind(enum.Enum):
    """Whether a task is a golden learning task or an unlabelled working task."""

    LEARNING = "learning"
    WORKING = "working"


@dataclass(frozen=True)
class Task:
    """A single Yes/No annotation task on the target domain.

    Attributes
    ----------
    task_id:
        Stable identifier.
    domain:
        The domain the task belongs to (always the target domain here, but
        kept explicit so prior-domain banks can reuse the type).
    kind:
        Learning (golden) or working task.
    gold_label:
        The ground-truth Yes/No answer.  Present for every simulated task;
        for working tasks it is used exclusively by the evaluation code.
    prompt:
        Optional human-readable question text (useful in examples).
    """

    task_id: str
    domain: str
    kind: TaskKind
    gold_label: bool
    prompt: str = ""


@dataclass
class TaskBank:
    """The pool of target-domain tasks available to a selection run."""

    domain: str
    learning_tasks: List[Task] = field(default_factory=list)
    working_tasks: List[Task] = field(default_factory=list)

    def __post_init__(self) -> None:
        for task in self.learning_tasks:
            if task.kind is not TaskKind.LEARNING:
                raise ValueError(f"task {task.task_id} in learning_tasks is not a learning task")
        for task in self.working_tasks:
            if task.kind is not TaskKind.WORKING:
                raise ValueError(f"task {task.task_id} in working_tasks is not a working task")

    # ------------------------------------------------------------------ #
    @property
    def n_learning(self) -> int:
        return len(self.learning_tasks)

    @property
    def n_working(self) -> int:
        return len(self.working_tasks)

    def take_learning_tasks(self, start_index: int, count: int) -> List[Task]:
        """Learning tasks ``start_index .. start_index + count`` (cycled if needed)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if not self.learning_tasks:
            raise ValueError("the task bank holds no learning tasks")
        n = len(self.learning_tasks)
        return [self.learning_tasks[(start_index + offset) % n] for offset in range(count)]


def generate_task_bank(
    domain: str,
    n_learning: int,
    n_working: int,
    rng: SeedLike = None,
    positive_rate: float = 0.5,
    prompt_template: str = "Is this an instance of {domain}? (item #{index})",
) -> TaskBank:
    """Generate a synthetic bank of Yes/No tasks with random gold labels.

    Parameters
    ----------
    domain:
        Target-domain name used in identifiers and prompts.
    n_learning, n_working:
        Number of learning (golden) and working tasks to create.
    positive_rate:
        Probability that a task's gold answer is "Yes"; the paper's surveys
        are roughly balanced.
    """
    if n_learning < 0 or n_working < 0:
        raise ValueError("task counts must be non-negative")
    if not 0.0 <= positive_rate <= 1.0:
        raise ValueError("positive_rate must lie in [0, 1]")
    generator = as_generator(rng)
    # One draw for every label reproduces the per-task scalar draws bit for
    # bit (learning tasks first, then working tasks).
    gold_labels = (generator.uniform(size=n_learning + n_working) < positive_rate).tolist()

    def _make(kind: TaskKind, index: int, gold_label: bool) -> Task:
        return Task(
            task_id=f"{domain}-{kind.value}-{index:04d}",
            domain=domain,
            kind=kind,
            gold_label=gold_label,
            prompt=prompt_template.format(domain=domain, index=index),
        )

    learning = [_make(TaskKind.LEARNING, i, gold_labels[i]) for i in range(n_learning)]
    working = [_make(TaskKind.WORKING, i, gold_labels[n_learning + i]) for i in range(n_working)]
    return TaskBank(domain=domain, learning_tasks=learning, working_tasks=working)


__all__ = ["Task", "TaskKind", "TaskBank", "generate_task_bank"]
