"""Answer-generating worker behaviour models.

Every simulated worker is a *behaviour*: a latent target-domain accuracy
curve over training exposure plus the (tiny) mutable state of how many
learning tasks have been revealed to it so far.  The paper itself needs only
two behaviours — :class:`StaticWorker` and :class:`LearningWorker` — but
real crowdsourcing pools contain the populations that motivate worker
selection in the first place (Li et al., "Cheaper and Better"; Zhao et al.,
"An Active Learning Approach for Jointly Estimating Worker Performance and
Annotation Reliability"), so this module additionally ships:

* :class:`SpammerWorker` — answers are coin flips, training never helps;
* :class:`AdversarialWorker` — systematically below-chance answers;
* :class:`FatigueWorker` — accuracy *decays* with exposure (burn-out);
* :class:`SleeperWorker` — alternates awake/asleep phases; asleep streaks
  answer at guess accuracy (intermittent non-response);
* :class:`DrifterWorker` — a mid-campaign step change in accuracy.

All behaviours are **exposure-pure**: the latent accuracy is a deterministic
function of the cumulative training exposure (plus construction-time
parameters), never of hidden RNG state.  That single property is what lets
the platform's answer simulation cover a whole pool with one batched curve
evaluation and one Bernoulli draw while remaining bit-identical to the
per-worker loop it replaced (kept as a test oracle).

The curve contract has two halves:

* :meth:`WorkerBehavior.curve_params` — the scalar parameters of one worker;
* :meth:`WorkerBehavior.batch_accuracy` — a classmethod evaluating the curve
  for a whole *stack* of workers at once: ``params`` maps parameter names to
  per-worker vectors and ``exposures`` is a ``(workers, points)`` matrix.

The scalar :meth:`WorkerBehavior.accuracy_at` delegates to
:meth:`batch_accuracy` on a 1x1 matrix, so the two paths cannot drift apart.
Third-party subclasses may instead override :meth:`accuracy_at` directly;
the batched answer simulation detects the missing batch implementation and
falls back to a per-worker loop for those rows (correct, just slower).

The learning curve is the modified IRT model the paper uses to build its
synthetic datasets::

    accuracy(K) = sigmoid(logit(a_0) + alpha * ln(K + 1))

Workers only *learn* when ground-truth answers are revealed to them
(``observe_feedback``), matching the paper's answer-and-learn protocol: the
accuracy used for a batch of answers is the accuracy *before* that batch's
feedback arrives.
"""

from __future__ import annotations

import abc
from typing import Dict

import numpy as np

from repro.irt.rasch import logit, sigmoid
from repro.stats.rng import SeedLike, as_generator
from repro.workers.profile import WorkerProfile

#: Default guess accuracy for behaviours that sometimes answer at random
#: (Yes/No tasks: a coin flip is right half the time).
GUESS_ACCURACY = 0.5


class WorkerBehavior(abc.ABC):
    """Interface every simulated worker implements."""

    def __init__(self, profile: WorkerProfile) -> None:
        self._profile = profile
        self._training_exposure = 0.0

    # ------------------------------------------------------------------ #
    @property
    def profile(self) -> WorkerProfile:
        """The worker's historical ``(h_i, n_i)`` profile."""
        return self._profile

    @property
    def worker_id(self) -> str:
        return self._profile.worker_id

    @property
    def training_exposure(self) -> float:
        """Cumulative number of target-domain learning tasks with revealed answers."""
        return self._training_exposure

    # ------------------------------------------------------------------ #
    # The accuracy curve
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def curve_params(self) -> Dict[str, float]:
        """This worker's scalar curve parameters, keyed for :meth:`batch_accuracy`."""

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        """Latent accuracy of a stack of same-class workers at given exposures.

        Parameters
        ----------
        params:
            Mapping of parameter name to a per-worker vector of length ``W``
            (column-stacked :meth:`curve_params` of the workers).
        exposures:
            ``(W, P)`` matrix of training exposures to evaluate.

        Returns
        -------
        numpy.ndarray
            ``(W, P)`` matrix of latent accuracies.  Implementations must be
            purely elementwise so batched and scalar evaluation agree
            bitwise.
        """
        raise NotImplementedError(
            f"{cls.__name__} does not implement a batched accuracy curve; "
            "the vectorized engine falls back to per-worker evaluation"
        )

    @classmethod
    def supports_batch_curve(cls) -> bool:
        """Whether this class implements the vectorized curve evaluation."""
        # Classmethod access rebinds on every lookup, so compare the
        # underlying functions, not the bound method objects.
        return cls.batch_accuracy.__func__ is not WorkerBehavior.batch_accuracy.__func__

    def accuracy_at(self, exposure: float) -> float:
        """Latent target-domain accuracy after ``exposure`` revealed learning tasks."""
        if exposure < 0:
            raise ValueError("exposure must be non-negative")
        params = {key: np.asarray([value], dtype=float) for key, value in self.curve_params().items()}
        return float(type(self).batch_accuracy(params, np.asarray([[float(exposure)]]))[0, 0])

    @property
    def current_accuracy(self) -> float:
        """Latent accuracy at the worker's current training exposure."""
        return self.accuracy_at(self._training_exposure)

    # ------------------------------------------------------------------ #
    # Answering and training
    # ------------------------------------------------------------------ #
    def answer_tasks(self, n_tasks: int, rng: SeedLike = None) -> np.ndarray:
        """Simulate answering ``n_tasks`` target-domain tasks.

        Returns a boolean array of per-task correctness drawn i.i.d. at the
        worker's *current* accuracy (training from these tasks only takes
        effect once :meth:`observe_feedback` is called, mirroring the
        answer-then-learn protocol).
        """
        if n_tasks < 0:
            raise ValueError(f"n_tasks must be non-negative, got {n_tasks}")
        generator = as_generator(rng)
        return generator.uniform(size=n_tasks) < self.current_accuracy

    def observe_feedback(self, n_tasks: int) -> None:
        """Reveal the ground truth of ``n_tasks`` learning tasks to the worker."""
        if n_tasks < 0:
            raise ValueError(f"n_tasks must be non-negative, got {n_tasks}")
        self._training_exposure += float(n_tasks)

    def reset_training(self) -> None:
        """Forget all target-domain training (used between experiment repetitions)."""
        self._training_exposure = 0.0


class StaticWorker(WorkerBehavior):
    """A worker whose target-domain accuracy never changes."""

    def __init__(self, profile: WorkerProfile, target_accuracy: float) -> None:
        super().__init__(profile)
        if not 0.0 <= target_accuracy <= 1.0:
            raise ValueError(f"target_accuracy must lie in [0, 1], got {target_accuracy}")
        self._target_accuracy = float(target_accuracy)

    def curve_params(self) -> Dict[str, float]:
        return {"accuracy": self._target_accuracy}

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        return np.broadcast_to(params["accuracy"][:, None], exposures.shape).copy()


class LearningWorker(WorkerBehavior):
    """A worker that learns from revealed answers along a logistic curve."""

    def __init__(
        self,
        profile: WorkerProfile,
        initial_accuracy: float,
        learning_rate: float,
        max_accuracy: float = 0.995,
        min_accuracy: float = 0.005,
    ) -> None:
        super().__init__(profile)
        if not 0.0 < initial_accuracy < 1.0:
            raise ValueError(f"initial_accuracy must lie in (0, 1), got {initial_accuracy}")
        if not np.isfinite(learning_rate):
            raise ValueError(f"learning_rate must be finite, got {learning_rate}")
        if not 0.0 < max_accuracy <= 1.0:
            raise ValueError(f"max_accuracy must lie in (0, 1], got {max_accuracy}")
        if not 0.0 <= min_accuracy < max_accuracy:
            raise ValueError("min_accuracy must lie in [0, max_accuracy)")
        self._initial_accuracy = float(initial_accuracy)
        self._learning_rate = float(learning_rate)
        self._max_accuracy = float(max_accuracy)
        self._min_accuracy = float(min_accuracy)

    # ------------------------------------------------------------------ #
    @property
    def initial_accuracy(self) -> float:
        """Accuracy before any target-domain training (``a_0``)."""
        return self._initial_accuracy

    @property
    def learning_rate(self) -> float:
        """The worker's true learning rate ``alpha`` (hidden from the algorithms)."""
        return self._learning_rate

    def curve_params(self) -> Dict[str, float]:
        return {
            "initial_accuracy": self._initial_accuracy,
            "learning_rate": self._learning_rate,
            "max_accuracy": self._max_accuracy,
            "min_accuracy": self._min_accuracy,
        }

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        curve = sigmoid(
            logit(params["initial_accuracy"])[:, None]
            + params["learning_rate"][:, None] * np.log1p(exposures)
        )
        return np.clip(curve, params["min_accuracy"][:, None], params["max_accuracy"][:, None])


class SpammerWorker(WorkerBehavior):
    """A coin-flip worker: every answer is a guess, training never helps."""

    def __init__(self, profile: WorkerProfile, guess_accuracy: float = GUESS_ACCURACY) -> None:
        super().__init__(profile)
        if not 0.0 <= guess_accuracy <= 1.0:
            raise ValueError(f"guess_accuracy must lie in [0, 1], got {guess_accuracy}")
        self._guess_accuracy = float(guess_accuracy)

    def curve_params(self) -> Dict[str, float]:
        return {"guess_accuracy": self._guess_accuracy}

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        return np.broadcast_to(params["guess_accuracy"][:, None], exposures.shape).copy()


class AdversarialWorker(WorkerBehavior):
    """A worker answering systematically *below* chance (deliberate wrong answers)."""

    def __init__(self, profile: WorkerProfile, accuracy: float = 0.35) -> None:
        super().__init__(profile)
        if not 0.0 <= accuracy < GUESS_ACCURACY:
            raise ValueError(f"adversarial accuracy must lie in [0, {GUESS_ACCURACY}), got {accuracy}")
        self._accuracy = float(accuracy)

    def curve_params(self) -> Dict[str, float]:
        return {"accuracy": self._accuracy}

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        return np.broadcast_to(params["accuracy"][:, None], exposures.shape).copy()


class FatigueWorker(WorkerBehavior):
    """A worker whose accuracy *decays* with exposure (burn-out on long campaigns).

    The curve is the learning curve with a negated rate and a floor::

        accuracy(K) = max(sigmoid(logit(a_0) - rate * ln(K + 1)), floor)
    """

    def __init__(
        self,
        profile: WorkerProfile,
        initial_accuracy: float = 0.8,
        fatigue_rate: float = 0.3,
        floor_accuracy: float = 0.25,
    ) -> None:
        super().__init__(profile)
        if not 0.0 < initial_accuracy < 1.0:
            raise ValueError(f"initial_accuracy must lie in (0, 1), got {initial_accuracy}")
        if fatigue_rate < 0:
            raise ValueError(f"fatigue_rate must be non-negative, got {fatigue_rate}")
        if not 0.0 <= floor_accuracy <= initial_accuracy:
            raise ValueError("floor_accuracy must lie in [0, initial_accuracy]")
        self._initial_accuracy = float(initial_accuracy)
        self._fatigue_rate = float(fatigue_rate)
        self._floor_accuracy = float(floor_accuracy)

    def curve_params(self) -> Dict[str, float]:
        return {
            "initial_accuracy": self._initial_accuracy,
            "fatigue_rate": self._fatigue_rate,
            "floor_accuracy": self._floor_accuracy,
        }

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        curve = sigmoid(
            logit(params["initial_accuracy"])[:, None]
            - params["fatigue_rate"][:, None] * np.log1p(exposures)
        )
        return np.maximum(curve, params["floor_accuracy"][:, None])


class SleeperWorker(WorkerBehavior):
    """A worker with intermittent non-response: periodic asleep streaks.

    Exposure is divided into cycles of ``period`` tasks.  The first
    ``sleep_fraction`` of each cycle (shifted by a per-worker ``phase``) is
    an *asleep* streak answered at ``asleep_accuracy`` (guessing — the
    Bernoulli equivalent of not reading the task); the rest is answered at
    ``awake_accuracy``.  The schedule is a pure function of exposure, so the
    behaviour needs no hidden RNG state and vectorizes exactly.
    """

    def __init__(
        self,
        profile: WorkerProfile,
        awake_accuracy: float = 0.8,
        asleep_accuracy: float = GUESS_ACCURACY,
        period: float = 30.0,
        sleep_fraction: float = 0.3,
        phase: float = 0.0,
    ) -> None:
        super().__init__(profile)
        if not 0.0 <= awake_accuracy <= 1.0:
            raise ValueError(f"awake_accuracy must lie in [0, 1], got {awake_accuracy}")
        if not 0.0 <= asleep_accuracy <= 1.0:
            raise ValueError(f"asleep_accuracy must lie in [0, 1], got {asleep_accuracy}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= sleep_fraction <= 1.0:
            raise ValueError(f"sleep_fraction must lie in [0, 1], got {sleep_fraction}")
        if not 0.0 <= phase < 1.0:
            raise ValueError(f"phase must lie in [0, 1), got {phase}")
        self._awake_accuracy = float(awake_accuracy)
        self._asleep_accuracy = float(asleep_accuracy)
        self._period = float(period)
        self._sleep_fraction = float(sleep_fraction)
        self._phase = float(phase)

    def curve_params(self) -> Dict[str, float]:
        return {
            "awake_accuracy": self._awake_accuracy,
            "asleep_accuracy": self._asleep_accuracy,
            "period": self._period,
            "sleep_fraction": self._sleep_fraction,
            "phase": self._phase,
        }

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        period = params["period"][:, None]
        position = np.mod(exposures + params["phase"][:, None] * period, period)
        asleep = position < params["sleep_fraction"][:, None] * period
        return np.where(
            asleep, params["asleep_accuracy"][:, None], params["awake_accuracy"][:, None]
        )


class DrifterWorker(WorkerBehavior):
    """A worker whose accuracy steps from one level to another mid-campaign.

    Models account sharing, tooling changes or simple disengagement: the
    worker answers at ``initial_accuracy`` until ``drift_exposure`` revealed
    tasks, then at ``drifted_accuracy`` from that point on.  Setting
    ``drift_exposure`` beyond the training schedule produces a worker that
    looks healthy during selection and degrades during serving — exactly the
    population the serving layer's drift detector exists for.
    """

    def __init__(
        self,
        profile: WorkerProfile,
        initial_accuracy: float = 0.8,
        drifted_accuracy: float = 0.4,
        drift_exposure: float = 40.0,
    ) -> None:
        super().__init__(profile)
        if not 0.0 <= initial_accuracy <= 1.0:
            raise ValueError(f"initial_accuracy must lie in [0, 1], got {initial_accuracy}")
        if not 0.0 <= drifted_accuracy <= 1.0:
            raise ValueError(f"drifted_accuracy must lie in [0, 1], got {drifted_accuracy}")
        if drift_exposure < 0:
            raise ValueError(f"drift_exposure must be non-negative, got {drift_exposure}")
        self._initial_accuracy = float(initial_accuracy)
        self._drifted_accuracy = float(drifted_accuracy)
        self._drift_exposure = float(drift_exposure)

    @property
    def drift_exposure(self) -> float:
        """Exposure at which the step change happens."""
        return self._drift_exposure

    def curve_params(self) -> Dict[str, float]:
        return {
            "initial_accuracy": self._initial_accuracy,
            "drifted_accuracy": self._drifted_accuracy,
            "drift_exposure": self._drift_exposure,
        }

    @classmethod
    def batch_accuracy(cls, params: Dict[str, np.ndarray], exposures: np.ndarray) -> np.ndarray:
        return np.where(
            exposures < params["drift_exposure"][:, None],
            params["initial_accuracy"][:, None],
            params["drifted_accuracy"][:, None],
        )


__all__ = [
    "GUESS_ACCURACY",
    "WorkerBehavior",
    "StaticWorker",
    "LearningWorker",
    "SpammerWorker",
    "AdversarialWorker",
    "FatigueWorker",
    "SleeperWorker",
    "DrifterWorker",
]
