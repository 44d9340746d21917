"""Worker-population samplers.

Section V-A of the paper generates synthetic worker pools by sampling the
per-domain accuracy vector ``[h_1, ..., h_D, h_T]`` of every worker from a
multivariate normal truncated to ``(0, 1)`` whose prior-domain moments match
RW-1 and whose inter-domain correlations are drawn uniformly at random.
Target-domain learning dynamics are then attached following the paper's own
recipe: every worker starts at the cold-start accuracy ``a_T`` (0.5 for
Yes/No questions) and the modified IRT model is inverted on the first batch
so that the worker reaches its sampled quality ``h_T`` after ``Q`` revealed
learning tasks:

    alpha_i = gain_scale * (logit(h_T) - logit(a_T)) / ln(Q + 1)
    accuracy_i(K) = sigmoid(logit(a_T) + alpha_i * ln(K + 1))

This is the ``"target_quality"`` learning mode (the default for the
synthetic datasets).  A second, ``"calibrated"`` mode keeps the sampled
``h_T`` as the *initial* accuracy and draws learning rates from an explicit
distribution — useful for custom scenarios where workers arrive with prior
exposure to the target domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.irt.rasch import logit
from repro.stats.mvn import MultivariateNormalModel, valid_correlations
from repro.stats.rng import SeedLike, as_generator
from repro.stats.truncated import sample_truncated_mvn, sample_truncated_mvn_block
from repro.workers.behavior import LearningWorker, WorkerBehavior
from repro.workers.profile import WorkerProfile
from repro.workers.registry import make_behavior, resolve_behavior_name

_ACCURACY_EPS = 0.02  # keep sampled accuracies away from the {0, 1} boundary

LEARNING_MODES = ("target_quality", "calibrated")

_CORRELATION_TOL = 1e-12  # rounding allowed in a configured matrix's symmetry and diagonal


@dataclass
class PopulationConfig:
    """Recipe for sampling a worker population.

    Attributes
    ----------
    prior_domains:
        Names of the ``D`` prior domains, in order.
    target_domain:
        Name of the target domain.
    prior_means, prior_stds:
        Per-prior-domain mean and standard deviation of worker accuracy
        (the paper's Table IV values).
    target_mean, target_std:
        Moments of the sampled target-domain quality ``h_T``.  In
        ``"target_quality"`` mode this is the accuracy a worker reaches
        after the first batch of ``reference_exposure`` learning tasks
        (exactly how the paper measures its Table IV target moments); in
        ``"calibrated"`` mode it is the pre-training accuracy.
    correlations:
        Either an explicit ``(D+1) x (D+1)`` correlation matrix or ``None``
        to draw the off-diagonal entries uniformly from
        ``correlation_range`` (the paper's construction).
    correlation_range:
        Range for the random correlations when ``correlations`` is ``None``.
    prior_task_count:
        Number of historical tasks recorded per prior domain.
    learning_mode:
        ``"target_quality"`` (paper recipe, default) or ``"calibrated"``.
    start_accuracy:
        Cold-start target-domain accuracy ``a_T`` around which workers start
        in ``"target_quality"`` mode (0.5 for Yes/No tasks).
    initial_spread:
        Fraction (in logit space) of a worker's quality gap that is already
        present *before* any training.  0 reproduces the paper's synthetic
        recipe literally (every worker starts exactly at ``a_T``); positive
        values model workers who bring some target-domain intuition with
        them, which is what the real-world surveys exhibit (Table IV reports
        a 0.17 standard deviation already in the first batch).
    initial_noise_std:
        Standard deviation (logit space) of per-worker noise on the starting
        accuracy, independent of the sampled quality.  Positive values
        create genuine "late bloomers" — workers whose early answers look
        mediocre but who learn quickly — the population the paper argues
        static selection methods filter out.  The learning rate is always
        re-derived so the curve still passes through the sampled quality
        after ``reference_exposure`` tasks, so Table IV's first-batch
        moments are unaffected.
    reference_exposure:
        Number of learning tasks after which a ``"target_quality"`` worker
        reaches its sampled quality ``h_T`` (the target-domain batch size
        ``Q``).  Required in that mode.
    gain_scale:
        Multiplier on the inverted learning rate; 1.0 reproduces the paper's
        synthetic recipe, larger values model the faster human learning the
        real-world surveys exhibit.
    learning_rate_noise_std:
        Standard deviation of additive noise on the learning rate
        (``"target_quality"`` mode); 0 keeps the recipe deterministic.
    min_learning_rate:
        Optional floor on the learning rate.  ``None`` (default) keeps the
        paper's synthetic recipe, in which workers whose sampled quality is
        below the cold-start accuracy drift downwards; ``0.0`` models the
        real-world surveys, where seeing the revealed ground truth never
        makes a worker worse.
    learning_rate_mean, learning_rate_std, learning_rate_correlation:
        Parameters of the explicit learning-rate distribution used by the
        ``"calibrated"`` mode (ignored otherwise).
    behavior_mix:
        Optional contamination recipe: mapping of registered behaviour name
        to the fraction of the pool replaced by that behaviour (e.g.
        ``{"spammer": 0.1, "drifter": 0.2}``).  Fractions must sum to at
        most 1; the remainder of the pool keeps the paper's learning-worker
        recipe.  Contaminated workers keep their sampled historical profiles
        (their prior-domain record looks normal — that is what makes them
        dangerous) but answer target-domain tasks with the named behaviour.
        Names are resolved through :mod:`repro.workers.registry`, so custom
        registered behaviours are reachable too.  The contamination draw
        consumes randomness strictly *after* the base population draw, so a
        contaminated pool shares its clean workers with the uncontaminated
        pool of the same seed (contamination sweeps are paired).
    behavior_params:
        Optional per-behaviour keyword overrides merged over the built-in
        parameter samplers (e.g. ``{"drifter": {"drift_exposure": 120.0}}``).
        Custom behaviours without a built-in sampler receive exactly these
        parameters (plus the profile).
    """

    prior_domains: Sequence[str]
    target_domain: str
    prior_means: Sequence[float]
    prior_stds: Sequence[float]
    target_mean: float
    target_std: float
    correlations: Optional[np.ndarray] = None
    correlation_range: Tuple[float, float] = (0.0, 1.0)
    prior_task_count: int = 10
    learning_mode: str = "target_quality"
    start_accuracy: float = 0.5
    initial_spread: float = 0.0
    initial_noise_std: float = 0.0
    reference_exposure: Optional[float] = None
    gain_scale: float = 1.0
    learning_rate_noise_std: float = 0.0
    min_learning_rate: Optional[float] = None
    learning_rate_mean: float = 0.25
    learning_rate_std: float = 0.12
    learning_rate_correlation: float = 0.0
    behavior_mix: Optional[Mapping[str, float]] = None
    behavior_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        d = len(self.prior_domains)
        if len(self.prior_means) != d or len(self.prior_stds) != d:
            raise ValueError("prior_means/prior_stds must match the number of prior domains")
        if not all(std > 0 for std in self.prior_stds):
            raise ValueError(f"prior_stds must be positive, got {tuple(self.prior_stds)}")
        if self.correlations is not None:
            _check_correlations(self.correlations, d + 1)
        low, high = self.correlation_range
        if not -1.0 <= low <= high <= 1.0:
            raise ValueError(
                f"correlation_range must satisfy -1 <= low <= high <= 1, got {self.correlation_range}"
            )
        if not 0.0 < self.target_mean < 1.0:
            raise ValueError("target_mean must lie in (0, 1)")
        if self.target_std <= 0:
            raise ValueError("target_std must be positive")
        if self.prior_task_count < 0:
            raise ValueError("prior_task_count must be non-negative")
        if self.learning_mode not in LEARNING_MODES:
            raise ValueError(f"learning_mode must be one of {LEARNING_MODES}, got {self.learning_mode!r}")
        if not 0.0 < self.start_accuracy < 1.0:
            raise ValueError("start_accuracy must lie in (0, 1)")
        if not 0.0 <= self.initial_spread < 1.0:
            raise ValueError("initial_spread must lie in [0, 1)")
        if self.initial_noise_std < 0:
            raise ValueError("initial_noise_std must be non-negative")
        if self.learning_mode == "target_quality":
            if self.reference_exposure is None or self.reference_exposure <= 0:
                raise ValueError("target_quality mode requires a positive reference_exposure")
            if self.gain_scale <= 0:
                raise ValueError("gain_scale must be positive")
            if self.learning_rate_noise_std < 0:
                raise ValueError("learning_rate_noise_std must be non-negative")
        if self.learning_rate_std < 0:
            raise ValueError("learning_rate_std must be non-negative")
        if not -1.0 <= self.learning_rate_correlation <= 1.0:
            raise ValueError("learning_rate_correlation must lie in [-1, 1]")
        if self.behavior_mix is not None:
            # Canonicalise names (validates them against the registry) and
            # fix a sorted order so the config's repr — and therefore the
            # experiment store's spec digest — is stable.
            resolved: Dict[str, float] = {}
            for name in sorted(self.behavior_mix):
                fraction = float(self.behavior_mix[name])
                if not 0.0 <= fraction <= 1.0:
                    raise ValueError(f"behavior fraction for {name!r} must lie in [0, 1], got {fraction}")
                canonical = resolve_behavior_name(name)
                resolved[canonical] = resolved.get(canonical, 0.0) + fraction
            if sum(resolved.values()) > 1.0 + 1e-9:
                raise ValueError(f"behavior_mix fractions sum to {sum(resolved.values()):.3f} > 1")
            self.behavior_mix = {name: resolved[name] for name in sorted(resolved)}
        # Canonicalise behavior_params keys through the registry too, so an
        # alias key ("drift") reaches the behaviour its mix entry resolves
        # to instead of being silently ignored.
        canonical_params: Dict[str, Dict[str, object]] = {}
        for name, params in sorted(dict(self.behavior_params).items()):
            canonical_params.setdefault(resolve_behavior_name(name), {}).update(params)
        self.behavior_params = canonical_params

    # ------------------------------------------------------------------ #
    @property
    def n_prior_domains(self) -> int:
        return len(self.prior_domains)

    @property
    def domain_order(self) -> List[str]:
        """Prior domains followed by the target domain."""
        return [*self.prior_domains, self.target_domain]

    def _moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Means and standard deviations of the accuracy vector, target domain last."""
        means = np.array([*self.prior_means, self.target_mean], dtype=float)
        stds = np.array([*self.prior_stds, self.target_std], dtype=float)
        return means, stds

    def _correlation_upper(self, generator: np.random.Generator) -> np.ndarray:
        """Upper triangle of the correlation matrix: the configured one, or uniform draws."""
        d = self.n_prior_domains + 1
        if self.correlations is not None:
            rho = np.asarray(self.correlations, dtype=float)
            return (0.5 * (rho + rho.T))[np.triu_indices(d, k=1)]
        low, high = self.correlation_range
        return generator.uniform(low, high, size=d * (d - 1) // 2)

    def accuracy_model(self, rng: SeedLike = None) -> MultivariateNormalModel:
        """The (untruncated) multivariate normal the accuracy vectors are drawn from."""
        means, stds = self._moments()
        d = means.shape[0]
        rows, cols = np.triu_indices(d, k=1)
        rho = np.eye(d)
        rho[rows, cols] = rho[cols, rows] = self._correlation_upper(as_generator(rng))
        return MultivariateNormalModel.from_moments(means, stds, rho)


def _check_correlations(correlations: object, dimension: int) -> None:
    """Raise unless ``correlations`` is a ``dimension``-square correlation matrix.

    Symmetry and the unit diagonal hold to ``1e-12``; off-diagonal entries
    lie in ``[-1, 1]``.  Whether the matrix is positive definite is not
    checked: an inconsistent matrix is projected to the nearest valid one
    when the model is built, as randomly drawn correlations are.
    """
    rho = np.asarray(correlations, dtype=float)
    if rho.shape != (dimension, dimension):
        raise ValueError(f"correlations must have shape ({dimension}, {dimension}), got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("correlations must be finite")
    if not np.allclose(rho, rho.T, rtol=0.0, atol=_CORRELATION_TOL):
        raise ValueError("correlations must be symmetric")
    if not np.allclose(np.diag(rho), 1.0, rtol=0.0, atol=_CORRELATION_TOL):
        raise ValueError("correlations must have a unit diagonal")
    if np.any(np.abs(rho[~np.eye(dimension, dtype=bool)]) > 1.0):
        raise ValueError("correlations must lie in [-1, 1]")


def _target_quality_parameters(
    config: PopulationConfig,
    sampled_qualities: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Invert the modified IRT model on the first batch (paper recipe).

    Returns ``(initial_accuracies, learning_rates)``: a worker starts
    ``initial_spread`` of the way (in logit space) from the cold-start
    accuracy towards its sampled quality and its learning rate is chosen so
    that the curve passes through the sampled quality after
    ``reference_exposure`` revealed learning tasks (scaled by
    ``gain_scale``).
    """
    start_logit = float(logit(config.start_accuracy))
    quality_logits = np.asarray(logit(sampled_qualities), dtype=float)
    initial_logits = start_logit + config.initial_spread * (quality_logits - start_logit)
    if config.initial_noise_std > 0:
        initial_logits = initial_logits + rng.normal(
            0.0, config.initial_noise_std, size=initial_logits.shape
        )
    initial_accuracies = 1.0 / (1.0 + np.exp(-initial_logits))

    scale = np.log1p(float(config.reference_exposure))
    rates = config.gain_scale * (quality_logits - initial_logits) / scale
    if config.learning_rate_noise_std > 0:
        rates = rates + rng.normal(0.0, config.learning_rate_noise_std, size=rates.shape)
    if config.min_learning_rate is not None:
        rates = np.maximum(rates, config.min_learning_rate)
    return initial_accuracies, rates


def _calibrated_learning_rates(
    config: PopulationConfig,
    initial_accuracies: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw per-worker learning rates, optionally correlated with initial accuracy."""
    n_workers = initial_accuracies.shape[0]
    base = rng.normal(config.learning_rate_mean, config.learning_rate_std, size=n_workers)
    correlation = config.learning_rate_correlation
    if abs(correlation) > 1e-12 and initial_accuracies.std() > 1e-12:
        standardized = (initial_accuracies - initial_accuracies.mean()) / initial_accuracies.std()
        noise = rng.normal(0.0, 1.0, size=n_workers)
        mixed = correlation * standardized + np.sqrt(max(0.0, 1.0 - correlation**2)) * noise
        base = config.learning_rate_mean + config.learning_rate_std * mixed
    return np.clip(base, 0.0, None)


def _contamination_counts(mix: Mapping[str, float], n_workers: int) -> Dict[str, int]:
    """Largest-remainder apportionment of contaminated workers per behaviour.

    Deterministic (ties broken by name) so a pool's composition is a pure
    function of the configuration — no randomness is consumed here.
    """
    exact = {name: fraction * n_workers for name, fraction in mix.items()}
    counts = {name: int(np.floor(value)) for name, value in exact.items()}
    leftover = int(round(sum(exact.values()))) - sum(counts.values())
    by_remainder = sorted(exact, key=lambda name: (-(exact[name] - counts[name]), name))
    for name in by_remainder[:max(leftover, 0)]:
        counts[name] += 1
    return {name: count for name, count in counts.items() if count > 0}


def _builtin_mix_params(
    name: str,
    quality: float,
    config: PopulationConfig,
    generator: np.random.Generator,
) -> Dict[str, object]:
    """Construction parameters for one contaminated worker of a built-in kind.

    ``quality`` is the worker's sampled target-domain quality ``h_T`` — the
    accuracy the worker *would* have reached as a learner — so contaminated
    pools stay anchored to the same population moments.  Each behaviour
    consumes a fixed number of generator draws regardless of ``quality`` so
    the stream stays aligned across workers.
    """
    reference = float(config.reference_exposure) if config.reference_exposure else 20.0
    if name == "spammer":
        return {}
    if name == "adversarial":
        return {"accuracy": float(np.clip(1.0 - quality, 0.05, 0.45))}
    if name == "fatigue":
        return {
            "initial_accuracy": float(np.clip(quality, 0.55, 0.95)),
            "fatigue_rate": float(generator.uniform(0.15, 0.45)),
        }
    if name == "sleeper":
        return {
            "awake_accuracy": float(np.clip(quality, 0.55, 0.98)),
            "period": float(generator.uniform(0.8, 2.5) * reference),
            "sleep_fraction": float(generator.uniform(0.2, 0.5)),
            "phase": float(generator.uniform(0.0, 1.0)),
        }
    if name == "drifter":
        drop = float(generator.uniform(0.2, 0.4))
        start = float(np.clip(quality, 0.55, 0.95))
        return {
            "initial_accuracy": start,
            "drifted_accuracy": float(np.clip(start - drop, 0.05, 1.0)),
            "drift_exposure": float(generator.uniform(1.0, 3.0) * reference),
        }
    return {}


def _contaminate(
    workers: List[WorkerBehavior],
    sampled_target: np.ndarray,
    config: PopulationConfig,
    generator: np.random.Generator,
) -> List[WorkerBehavior]:
    """Replace a deterministic subset of the pool with mixed-in behaviours."""
    counts = _contamination_counts(config.behavior_mix or {}, len(workers))
    total = sum(counts.values())
    if total == 0:
        return workers
    # One permutation draw selects every contaminated slot; slices are
    # assigned behaviour by behaviour in sorted-name order.
    chosen = generator.permutation(len(workers))[:total]
    cursor = 0
    for name in sorted(counts):
        for index in sorted(int(i) for i in chosen[cursor:cursor + counts[name]]):
            params = _builtin_mix_params(name, float(sampled_target[index]), config, generator)
            params.update(config.behavior_params.get(name, {}))
            workers[index] = make_behavior(name, profile=workers[index].profile, **params)
        cursor += counts[name]
    return workers


def sample_learning_population(
    config: PopulationConfig,
    n_workers: int,
    rng: SeedLike = None,
    id_prefix: str = "worker",
    id_offset: int = 0,
) -> List[WorkerBehavior]:
    """Sample a worker pool according to ``config``.

    Without a ``behavior_mix`` every worker is a
    :class:`~repro.workers.behavior.LearningWorker` (the paper's recipe);
    with one, the configured fractions of the pool are replaced by the named
    contamination behaviours, keeping their sampled historical profiles.

    Parameters
    ----------
    config:
        The population recipe (domain moments, correlations, learning mode,
        optional behaviour mix).
    n_workers:
        Pool size ``|W|``.
    rng:
        Seed or generator; the draw is fully deterministic given it.
    id_prefix:
        Worker identifiers become ``f"{id_prefix}-{id_offset + index:03d}"``.
    id_offset:
        Starting index for the identifiers — lets incremental samplers
        (marketplace arrivals drawn one at a time) mint globally unique
        ids from the same prefix without re-numbering earlier draws.
    """
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    if id_offset < 0:
        raise ValueError(f"id_offset must be non-negative, got {id_offset}")
    generator = as_generator(rng)
    model = config.accuracy_model(generator)
    samples = sample_truncated_mvn(model, size=n_workers, rng=generator, lower=0.0, upper=1.0)
    return _workers_from_samples(config, samples, generator, id_prefix, id_offset)


def sample_arrival_block(
    config: PopulationConfig,
    seeds: Sequence[SeedLike],
    id_prefix: str = "worker",
    id_offset: int = 0,
) -> List[WorkerBehavior]:
    """One worker per seed, each a one-worker pool of ``config``.

    Worker ``i`` equals
    ``sample_learning_population(config, 1, rng=seeds[i], id_prefix=id_prefix,
    id_offset=id_offset + i)[0]`` bit for bit: every worker has its own
    generator and draws in the same order (correlation uniforms, the
    rejection rounds' normals, the learning-curve noise, then the
    contamination draw).  Only the linear algebra is shared across the
    block — one correlation check, one covariance projection and one SVD
    for all of them (see
    :func:`~repro.stats.truncated.sample_truncated_mvn_block`) — which is
    most of a one-worker draw's cost.  The marketplace draws its arrivals
    this way, a block of indices ahead.
    """
    if id_offset < 0:
        raise ValueError(f"id_offset must be non-negative, got {id_offset}")
    generators = [as_generator(seed) for seed in seeds]
    # Every worker's model shares the mean and (clipped) sigma; only rho differs.
    shared = MultivariateNormalModel.from_moments(*config._moments())
    uppers = np.stack([config._correlation_upper(generator) for generator in generators])
    rhos = valid_correlations(uppers, shared.dimension)
    covariances = rhos * np.outer(shared.sigma, shared.sigma)
    samples = sample_truncated_mvn_block(shared.mean, covariances, generators, 1)
    return [
        _workers_from_samples(config, sample, generator, id_prefix, id_offset + index)[0]
        for index, (sample, generator) in enumerate(zip(samples, generators))
    ]


def _workers_from_samples(
    config: PopulationConfig,
    samples: np.ndarray,
    generator: np.random.Generator,
    id_prefix: str,
    id_offset: int,
) -> List[WorkerBehavior]:
    """Workers built from ``(n, D+1)`` truncated accuracy draws (the rest of a pool draw)."""
    n_workers = samples.shape[0]
    samples = np.clip(samples, _ACCURACY_EPS, 1.0 - _ACCURACY_EPS)

    prior_matrix = samples[:, : config.n_prior_domains]
    sampled_target = samples[:, -1]

    if config.learning_mode == "target_quality":
        initial_accuracies, learning_rates = _target_quality_parameters(config, sampled_target, generator)
    else:
        initial_accuracies = sampled_target
        learning_rates = _calibrated_learning_rates(config, sampled_target, generator)

    workers: List[WorkerBehavior] = []
    for index in range(n_workers):
        accuracies = {
            domain: float(prior_matrix[index, d]) for d, domain in enumerate(config.prior_domains)
        }
        counts = {domain: int(config.prior_task_count) for domain in config.prior_domains}
        profile = WorkerProfile(
            worker_id=f"{id_prefix}-{id_offset + index:03d}",
            accuracies=accuracies,
            task_counts=counts,
        )
        workers.append(
            LearningWorker(
                profile=profile,
                initial_accuracy=float(initial_accuracies[index]),
                learning_rate=float(learning_rates[index]),
            )
        )
    if config.behavior_mix:
        # Contamination consumes randomness strictly after the base draw so
        # the clean workers of a contaminated pool are identical to the
        # uncontaminated pool of the same seed (paired sweeps).
        workers = _contaminate(workers, sampled_target, config, generator)
    return workers


__all__ = ["PopulationConfig", "sample_learning_population", "sample_arrival_block", "LEARNING_MODES"]
