"""Registry tests: the shared ``Registry`` on every axis, and the selector axis.

``TestRegistry`` runs each check on a fresh registry in each canonical form
the plug-in axes use; the per-axis files test their built-ins and
forwarders against the process-wide registries.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import (
    LiRegressionSelector,
    MeCpeSelector,
    MedianEliminationSelector,
    OracleSelector,
    OursSelector,
    RandomSelector,
    UniformSamplingSelector,
)
from repro.config import METHOD_ORDER, ExperimentConfig
from repro.core.pipeline import CrossDomainWorkerSelector
from repro.core.registry import (
    describe_selector,
    make_selector,
    selector_exists,
    selector_names,
)
from repro.core.selector import BaseWorkerSelector
from repro.registry import Registry

EXPECTED_TYPES = {
    "us": UniformSamplingSelector,
    "me": MedianEliminationSelector,
    "li": LiRegressionSelector,
    "me-cpe": MeCpeSelector,
    "ours": OursSelector,
    "random": RandomSelector,
    "oracle": OracleSelector,
    "cross-domain": CrossDomainWorkerSelector,
}


class TestBuiltinRegistrations:
    def test_all_builtin_selectors_registered(self):
        assert set(EXPECTED_TYPES) <= set(selector_names())

    @pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
    def test_make_selector_by_name(self, name):
        selector = make_selector(name, seed=0)
        assert isinstance(selector, EXPECTED_TYPES[name])
        assert isinstance(selector, BaseWorkerSelector)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(make_selector("OURS", seed=0), OursSelector)

    def test_aliases_resolve(self):
        assert isinstance(make_selector("uniform"), UniformSamplingSelector)
        assert isinstance(make_selector("median-elimination", seed=1), MedianEliminationSelector)
        assert isinstance(make_selector("pipeline", seed=1), CrossDomainWorkerSelector)

    def test_selector_exists(self):
        assert selector_exists("ours")
        assert selector_exists("uniform")  # alias
        assert not selector_exists("nope")

    def test_keyword_configuration_reaches_the_estimators(self):
        selector = make_selector("ours", seed=3, target_initial_accuracy=0.6, cpe_epochs=10)
        inner = selector._inner
        assert inner._cpe_config.initial_target_mean == 0.6
        assert inner._cpe_config.n_epochs == 10
        assert inner._lge_config.target_initial_accuracy == 0.6

    def test_describe_selector_mentions_signature(self):
        description = describe_selector("ours")
        assert "ours" in description
        assert "seed" in description


class TestErrors:
    def test_unknown_name_lists_registered_selectors(self):
        with pytest.raises(KeyError) as excinfo:
            make_selector("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        assert "ours" in message and "us" in message

    def test_unknown_config_key_is_a_friendly_type_error(self):
        with pytest.raises(TypeError) as excinfo:
            make_selector("us", seed=0, not_a_knob=1)
        assert "us" in str(excinfo.value)

    def test_ignore_unsupported_drops_extra_config(self):
        selector = make_selector("us", seed=0, cpe_epochs=99, ignore_unsupported=True)
        assert isinstance(selector, UniformSamplingSelector)


#: (noun, canonical form) of each plug-in axis: selectors and behaviours
#: are lower-case, routers lower-case with ``-`` spelled ``_``, rule ids
#: upper-case.
AXES = [
    pytest.param("selector", str.lower, id="selector"),
    pytest.param("behavior", str.lower, id="behavior"),
    pytest.param("router", lambda name: name.lower().replace("-", "_"), id="router"),
    pytest.param("rule", str.upper, id="rule"),
]


def _factory(*args, seed=None):
    """Echo the call."""
    return ("built", args, seed)


def _other(*args, seed=None):
    return ("other", args, seed)


@pytest.mark.parametrize("noun, canonical", AXES)
class TestRegistry:
    def test_register_and_create_on_a_fresh_registry(self, noun, canonical):
        registry = Registry(noun, canonical)

        @registry.register("Always-Random", aliases=("ar",))
        def _build(*args, seed=None):
            return ("built", args, seed)

        key = canonical("Always-Random")
        assert registry.names() == [key]
        assert registry.resolve(" always-random ") == key
        assert registry.resolve("aR") == key
        assert registry["ar"] is _build
        assert "AR" in registry and "nope" not in registry
        assert registry.create("AR", "pool", seed=0) == ("built", ("pool",), 0)

    def test_describe_shows_signature_and_docstring(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("echo", _factory)
        key = canonical("echo")
        assert registry.describe("echo") == f"{key}(*args, seed=None) — Echo the call."
        registry.register("quiet", _other)
        assert registry.describe("quiet") == f"{canonical('quiet')}(*args, seed=None)"

    def test_duplicate_registration_rejected_unless_replace(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("x", _factory)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(" X ", _other)
        registry.register("x", _other, replace=True)
        assert registry.create("x")[0] == "other"

    def test_registering_over_an_alias_rejected_unless_replace(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("base", _factory, aliases=("nick",))
        with pytest.raises(ValueError, match="already an alias"):  # would be shadowed by the alias
            registry.register("nick", _other)
        registry.register("nick", _other, replace=True)
        assert registry.create("nick")[0] == "other"  # alias no longer shadows
        assert registry.create("base")[0] == "built"

    def test_alias_colliding_with_a_registered_name_rejected(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("victim", _factory)
        for replace in (False, True):
            with pytest.raises(ValueError, match="collides"):  # would silently hijack "victim"
                registry.register("other", _other, aliases=("victim",), replace=replace)
        assert registry.create("victim")[0] == "built"
        assert "other" not in registry  # a rejected registration leaves nothing behind

    def test_alias_pointing_elsewhere_rejected_unless_replace(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("first", _factory, aliases=("nick",))
        with pytest.raises(ValueError, match="already points at"):
            registry.register("second", _other, aliases=("nick",))
        assert registry.names() == [canonical("first")]
        registry.register("second", _other, aliases=("nick",), replace=True)
        assert registry.resolve("nick") == canonical("second")

    def test_unregister_removes_aliases(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("y", _factory, aliases=("why", "wye"))
        registry.unregister("why")
        assert registry.names() == []
        assert "y" not in registry and "why" not in registry and "wye" not in registry

    def test_unknown_name_lists_registered(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("known", _factory)
        with pytest.raises(KeyError) as excinfo:
            registry.create("does-not-exist")
        assert excinfo.value.args[0] == (
            f"unknown {noun} 'does-not-exist'; registered {noun}s: {canonical('known')}"
        )

    def test_bad_configuration_is_a_friendly_type_error(self, noun, canonical):
        registry = Registry(noun, canonical)
        registry.register("strict", _factory)
        key = canonical("strict")
        with pytest.raises(TypeError) as excinfo:
            registry.create("strict", not_a_knob=1)
        message = str(excinfo.value)
        assert message.startswith(f"invalid configuration for {noun} {key!r}: ")
        assert message.endswith(f"(signature: {key}(*args, seed=None))")

    def test_empty_name_rejected(self, noun, canonical):
        with pytest.raises(ValueError, match="must not be empty"):
            Registry(noun, canonical).register("  ", _factory)

    def test_loader_runs_once_before_the_first_registration(self, noun, canonical):
        calls = []

        def load():
            calls.append(1)
            registry.register("builtin", _factory, aliases=("b",))

        registry = Registry(noun, canonical, load)
        assert calls == []
        with pytest.raises(ValueError):  # the built-in is already there
            registry.register("builtin", _other)
        with pytest.raises(ValueError):
            registry.register("b", _other)
        registry.register("mine", _other)
        assert calls == [1]
        assert registry.names() == sorted([canonical("builtin"), canonical("mine")])

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda registry: registry.names(),
            lambda registry: "builtin" in registry,
            lambda registry: registry.resolve("builtin"),
            lambda registry: registry.describe("builtin"),
            lambda registry: registry.create("builtin"),
            lambda registry: registry["builtin"],
            lambda registry: registry.unregister("builtin"),
        ],
        ids=["names", "contains", "resolve", "describe", "create", "getitem", "unregister"],
    )
    def test_loader_runs_before_the_first_lookup(self, noun, canonical, lookup):
        calls = []

        def load():
            calls.append(1)
            registry.register("builtin", _factory)

        registry = Registry(noun, canonical, load)
        lookup(registry)
        registry.names()
        assert calls == [1]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter, where no built-ins are loaded yet."""
    script = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestBuiltinsLoadFirst:
    """A registration made before the first lookup meets the built-ins."""

    def test_early_registration_of_a_builtin_name_is_not_overwritten(self):
        run_fresh(
            "from repro.workers.profile import WorkerProfile\n"
            "from repro.workers.registry import make_behavior, register_behavior\n"
            "custom = lambda profile: 'custom'\n"
            "try:\n"
            "    register_behavior('static', custom)\n"
            "except ValueError as exc:\n"
            "    assert 'already registered' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('a second static behaviour was accepted')\n"
            "register_behavior('static', custom, replace=True)\n"
            "profile = WorkerProfile('w', {'a': 0.7}, {'a': 10})\n"
            "assert make_behavior('static', profile=profile) == 'custom'\n"
        )

    def test_early_registration_of_a_builtin_alias_keeps_behaviours_usable(self):
        run_fresh(
            "from repro.workers.profile import WorkerProfile\n"
            "from repro.workers.registry import behavior_names, make_behavior, register_behavior\n"
            "custom = lambda profile: 'custom'\n"
            "try:\n"
            "    register_behavior('spam', custom)\n"
            "except ValueError as exc:\n"
            "    assert \"alias of behavior 'spammer'\" in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('the spammer alias was taken silently')\n"
            "assert len(behavior_names()) == 7, behavior_names()\n"
            "profile = WorkerProfile('w', {'a': 0.7}, {'a': 10})\n"
            "assert make_behavior('spam', profile=profile).current_accuracy == 0.5\n"
        )

    def test_early_rule_with_a_builtin_id_keeps_lint_usable(self):
        run_fresh(
            "from repro.analysis import BaseRule, register_rule, rule_names\n"
            "from repro.cli import main\n"
            "class Mine(BaseRule):\n"
            "    rule_id = 'D001'\n"
            "    name = 'mine'\n"
            "    def check(self, module, project):\n"
            "        return iter(())\n"
            "try:\n"
            "    register_rule(Mine)\n"
            "except ValueError as exc:\n"
            "    assert 'already registered' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('a second D001 was accepted')\n"
            "assert len(rule_names()) == 15, rule_names()\n"
            "assert main(['lint', '--list-rules']) == 0\n"
        )


class TestConfigDelegation:
    def test_selector_factories_delegate_to_registry(self):
        factories = ExperimentConfig().selector_factories()
        assert set(factories) == set(METHOD_ORDER)
        for method, factory in factories.items():
            selector = factory(0)
            assert isinstance(selector, EXPECTED_TYPES[method])

    def test_shared_knobs_propagate_through_factories(self):
        config = ExperimentConfig(target_initial_accuracy=0.3, cpe_epochs=5)
        selector = config.selector_factories(["ours"])["ours"](0)
        assert selector._inner._cpe_config.initial_target_mean == 0.3
        assert selector._inner._cpe_config.n_epochs == 5

    def test_unknown_method_error_lists_registered_names(self):
        with pytest.raises(KeyError) as excinfo:
            ExperimentConfig().selector_factories(["nope"])
        assert "ours" in str(excinfo.value)
