"""Ablation variants built on the shared pipeline.

* :class:`MeCpeSelector` — ME-CPE: cross-domain performance estimation
  without learning-gain estimation (Table V's ablation row).
* :class:`OursSelector` — the full proposed method, exposed with the same
  constructor signature as the baselines so the experiment harness can
  instantiate every method uniformly.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.cpe import CPEConfig
from repro.core.lge import LGEConfig
from repro.core.pipeline import (
    CrossDomainWorkerSelector,
    RoundDiagnostics,
    build_cpe_config,
    build_lge_config,
)
from repro.core.registry import register_selector
from repro.core.selector import BaseWorkerSelector, SelectionResult
from repro.platform.session import AnnotationEnvironment
from repro.stats.rng import SeedLike


class MeCpeSelector(BaseWorkerSelector):
    """Median Elimination guided by CPE estimates, without LGE."""

    name = "me-cpe"

    def __init__(self, cpe_config: Optional[CPEConfig] = None, rng: SeedLike = None) -> None:
        self._inner = CrossDomainWorkerSelector(
            cpe_config=cpe_config,
            use_cpe=True,
            use_lge=False,
            rng=rng,
            name=self.name,
        )

    def select(self, environment: AnnotationEnvironment, k: Optional[int] = None) -> SelectionResult:
        return self._inner.select(environment, k)

    def stepwise(
        self, environment: AnnotationEnvironment, k: Optional[int] = None
    ) -> Generator[RoundDiagnostics, None, SelectionResult]:
        return (yield from self._inner.stepwise(environment, k))


class OursSelector(BaseWorkerSelector):
    """The full proposed method: CPE + LGE on top of budgeted Median Elimination."""

    name = "ours"

    def __init__(
        self,
        cpe_config: Optional[CPEConfig] = None,
        lge_config: Optional[LGEConfig] = None,
        rng: SeedLike = None,
    ) -> None:
        self._inner = CrossDomainWorkerSelector(
            cpe_config=cpe_config,
            lge_config=lge_config,
            use_cpe=True,
            use_lge=True,
            rng=rng,
            name=self.name,
        )

    def select(self, environment: AnnotationEnvironment, k: Optional[int] = None) -> SelectionResult:
        return self._inner.select(environment, k)

    def stepwise(
        self, environment: AnnotationEnvironment, k: Optional[int] = None
    ) -> Generator[RoundDiagnostics, None, SelectionResult]:
        return (yield from self._inner.stepwise(environment, k))


@register_selector("me-cpe", aliases=("mecpe",))
def _build_me_cpe(
    seed: SeedLike = None,
    target_initial_accuracy: Optional[float] = None,
    cpe_epochs: Optional[int] = None,
    cpe_config: Optional[CPEConfig] = None,
) -> MeCpeSelector:
    """The ME-CPE ablation: cross-domain estimation without learning gains."""
    return MeCpeSelector(
        cpe_config=cpe_config or build_cpe_config(target_initial_accuracy, cpe_epochs),
        rng=seed,
    )


@register_selector("ours", aliases=("cpe-lge",))
def _build_ours(
    seed: SeedLike = None,
    target_initial_accuracy: Optional[float] = None,
    cpe_epochs: Optional[int] = None,
    cpe_config: Optional[CPEConfig] = None,
    lge_config: Optional[LGEConfig] = None,
) -> OursSelector:
    """The paper's full method: CPE + LGE on budgeted Median Elimination."""
    return OursSelector(
        cpe_config=cpe_config or build_cpe_config(target_initial_accuracy, cpe_epochs),
        lge_config=lge_config or build_lge_config(target_initial_accuracy),
        rng=seed,
    )


__all__ = ["MeCpeSelector", "OursSelector"]
