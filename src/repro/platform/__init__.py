"""Crowdsourcing-platform simulator substrate.

The paper's framework (Figure 2 / Algorithm 4) runs on top of a
crowdsourcing platform that can

* hold a bank of target-domain tasks split into *learning* tasks (with gold
  labels that get revealed to workers) and *working* tasks (unlabelled, used
  only for evaluation) — :mod:`repro.platform.tasks`;
* compute the round/budget schedule of Eq. (12)-(13) —
  :mod:`repro.platform.budget`;
* assign learning-task batches to the remaining workers each round —
  :mod:`repro.platform.assignment`;
* record every worker's per-round answers — :mod:`repro.platform.history`;
* simulate a round's answers for the whole pool at once (one accuracy
  matrix and one vectorized Bernoulli draw) — :mod:`repro.platform.answers`;
* orchestrate the whole answer-and-learn loop while enforcing the budget —
  :mod:`repro.platform.session`.

Selection algorithms only interact with :class:`~repro.platform.session.AnnotationEnvironment`,
which exposes exactly the observables the paper allows (historical profiles
and learning-task answers) and keeps the latent worker accuracies hidden
behind evaluation-only methods.
"""

from repro.platform.answers import behavior_accuracy_matrix, simulate_round_answers
from repro.platform.assignment import RoundAssignment, build_round_assignment
from repro.platform.budget import BudgetSchedule, compute_budget, number_of_batches
from repro.platform.history import AnswerHistory, RoundRecord
from repro.platform.session import AnnotationEnvironment, BudgetExceededError
from repro.platform.tasks import Task, TaskBank, TaskKind, generate_task_bank

__all__ = [
    "Task",
    "TaskKind",
    "TaskBank",
    "generate_task_bank",
    "BudgetSchedule",
    "compute_budget",
    "number_of_batches",
    "RoundAssignment",
    "build_round_assignment",
    "AnswerHistory",
    "RoundRecord",
    "AnnotationEnvironment",
    "BudgetExceededError",
    "behavior_accuracy_matrix",
    "simulate_round_answers",
]
