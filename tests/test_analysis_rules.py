"""Fixture tests for the analysis rule pack: every rule fires, every pragma silences.

Each test writes a minimal offending snippet under ``tmp_path``, runs the
engine over it, and asserts (a) the rule fires on the bad form, (b) the
clean form passes, and (c) an inline ``# repro: allow[...] -- reason``
pragma suppresses the finding without deleting it from the report.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze


def _lint(tmp_path, source, *, name="snippet.py", rules=None):
    """Write ``source`` to ``tmp_path/name`` and analyze it."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze([target], rules=rules, root=tmp_path)


def _active_ids(report):
    return [finding.rule_id for finding in report.active]


def _suppressed_ids(report):
    return [finding.rule_id for finding in report.suppressed]


# --------------------------------------------------------------------- #
# D-rules: determinism
# --------------------------------------------------------------------- #
class TestGlobalRngD001:
    def test_numpy_global_state_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import numpy as np
            np.random.seed(42)
            x = np.random.rand(3)
            """,
        )
        assert _active_ids(report).count("D001") == 2

    def test_stdlib_random_fires(self, tmp_path):
        report = _lint(tmp_path, "import random\nx = random.random()\n")
        assert "D001" in _active_ids(report)

    def test_unseeded_default_rng_fires_seeded_passes(self, tmp_path):
        bad = _lint(tmp_path, "import numpy as np\nrng = np.random.default_rng()\n")
        good = _lint(tmp_path, "import numpy as np\nrng = np.random.default_rng(7)\n")
        assert "D001" in _active_ids(bad)
        assert "D001" not in _active_ids(good)

    def test_unseeded_as_generator_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.stats.rng import as_generator
            rng = as_generator(None)
            """,
        )
        assert "D001" in _active_ids(report)

    def test_rng_module_is_exempt(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            name="src/repro/stats/rng.py",
        )
        assert "D001" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import random
            x = random.random()  # repro: allow[D001] -- demo entropy, not an artifact
            """,
        )
        assert "D001" not in _active_ids(report)
        assert "D001" in _suppressed_ids(report)


class TestWallClockD002:
    def test_clock_reads_fire(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import time
            import datetime
            a = time.time()
            b = time.perf_counter()
            c = datetime.datetime.now()
            """,
        )
        assert _active_ids(report).count("D002") == 3

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import time
            start = time.perf_counter()  # repro: allow[D002] -- bench timing loop
            """,
        )
        assert "D002" not in _active_ids(report)
        assert report.suppressed[0].suppression_reason == "bench timing loop"

    def test_pragma_on_line_above_anchors_to_statement(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import time
            # repro: allow[D002] -- bench timing loop
            start = time.perf_counter()
            """,
        )
        assert "D002" not in _active_ids(report)
        assert "D002" in _suppressed_ids(report)


class TestUnsortedJsonD003:
    def test_dumps_without_sort_keys_fires(self, tmp_path):
        report = _lint(tmp_path, "import json\nprint(json.dumps({'a': 1}, indent=2))\n")
        assert "D003" in _active_ids(report)

    def test_dump_with_false_sort_keys_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import json
            with open('x.json', 'w') as handle:
                json.dump({'a': 1}, handle, sort_keys=False)
            """,
        )
        assert "D003" in _active_ids(report)

    def test_sorted_dump_passes(self, tmp_path):
        report = _lint(tmp_path, "import json\nprint(json.dumps({'a': 1}, sort_keys=True))\n")
        assert "D003" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import json
            print(json.dumps({'a': 1}))  # repro: allow[D003] -- human-facing debug dump
            """,
        )
        assert "D003" not in _active_ids(report)


class TestUnsyncedWriteD004:
    BAD = """
    import os

    def append(path, line):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
    """
    GOOD = """
    import os

    def append(path, line):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
    """

    def test_unsynced_write_in_journal_module_fires(self, tmp_path):
        report = _lint(tmp_path, self.BAD, name="journal.py")
        assert "D004" in _active_ids(report)

    def test_fsynced_write_passes(self, tmp_path):
        report = _lint(tmp_path, self.GOOD, name="journal.py")
        assert "D004" not in _active_ids(report)

    def test_rule_only_applies_to_durable_modules(self, tmp_path):
        report = _lint(tmp_path, self.BAD, name="report.py")
        assert "D004" not in _active_ids(report)

    def test_write_text_always_fires_in_durable_module(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from pathlib import Path

            def save(path, text):
                Path(path).write_text(text)
            """,
            name="store.py",
        )
        assert "D004" in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def save(path, line):
                with open(path, "w") as handle:
                    handle.write(line)  # repro: allow[D004] -- scratch file, not the durable store
            """,
            name="journal.py",
        )
        assert "D004" not in _active_ids(report)


class TestSetIterationD005:
    def test_for_over_set_literal_fires(self, tmp_path):
        report = _lint(tmp_path, "for x in {1, 2, 3}:\n    print(x)\n")
        assert "D005" in _active_ids(report)

    def test_comprehension_over_set_call_fires(self, tmp_path):
        report = _lint(tmp_path, "items = [x for x in set([3, 1, 2])]\n")
        assert "D005" in _active_ids(report)

    def test_list_of_set_fires(self, tmp_path):
        report = _lint(tmp_path, "items = list({3, 1, 2})\n")
        assert "D005" in _active_ids(report)

    def test_sorted_set_passes(self, tmp_path):
        report = _lint(tmp_path, "for x in sorted({1, 2, 3}):\n    print(x)\n")
        assert "D005" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            for x in {1, 2}:  # repro: allow[D005] -- order-free accumulation into a counter
                print(x)
            """,
        )
        assert "D005" not in _active_ids(report)


# --------------------------------------------------------------------- #
# C-rules: registry contracts
# --------------------------------------------------------------------- #
class TestBehaviorContractC001:
    def test_registered_class_missing_methods_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.workers.registry import register_behavior

            class Broken:
                def accuracy(self, batch):
                    return 0.5

            register_behavior("broken", Broken)
            """,
        )
        assert "C001" in _active_ids(report)

    def test_class_with_contract_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.workers.registry import register_behavior

            class Fine:
                def curve_params(self):
                    return ()

                @classmethod
                def batch_accuracy(cls, params, batches):
                    return params

            register_behavior("fine", Fine)
            """,
        )
        assert "C001" not in _active_ids(report)

    def test_contract_resolves_across_modules(self, tmp_path):
        (tmp_path / "defs.py").write_text(
            textwrap.dedent(
                """
                class Partial:
                    def curve_params(self):
                        return ()
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "reg.py").write_text(
            textwrap.dedent(
                """
                from defs import Partial
                from repro.workers.registry import register_behavior

                register_behavior("partial", Partial)
                """
            ),
            encoding="utf-8",
        )
        report = analyze([tmp_path], root=tmp_path)
        assert "C001" in _active_ids(report)
        assert "batch_accuracy" in report.active[0].message

    def test_inherited_methods_satisfy_contract(self, tmp_path):
        (tmp_path / "base.py").write_text(
            textwrap.dedent(
                """
                class BehaviorBase:
                    def curve_params(self):
                        return ()

                    @classmethod
                    def batch_accuracy(cls, params, batches):
                        return params
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "reg.py").write_text(
            textwrap.dedent(
                """
                from base import BehaviorBase
                from repro.workers.registry import register_behavior

                class Derived(BehaviorBase):
                    pass

                register_behavior("derived", Derived)
                """
            ),
            encoding="utf-8",
        )
        report = analyze([tmp_path], root=tmp_path)
        assert "C001" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.workers.registry import register_behavior

            class Broken:
                pass

            register_behavior("broken", Broken)  # repro: allow[C001] -- parser fixture, never simulated
            """,
        )
        assert "C001" not in _active_ids(report)
        assert "C001" in _suppressed_ids(report)

    def test_unresolvable_base_is_lenient(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from somewhere_external import Mixin
            from repro.workers.registry import register_behavior

            class MaybeFine(Mixin):
                pass

            register_behavior("maybe", MaybeFine)
            """,
        )
        assert "C001" not in _active_ids(report)


class TestRouterContractC002:
    def test_registered_router_missing_route_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.serving.routing import register_router

            class Broken:
                def pick(self, task):
                    return None

            register_router("broken", Broken)
            """,
        )
        assert "C002" in _active_ids(report)

    def test_router_with_contract_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.serving.routing import register_router

            class Fine:
                def route(self, task):
                    return None

                def on_worker_added(self, worker_id):
                    pass

                def on_worker_removed(self, worker_id):
                    pass

                def on_qualification_changed(self, worker_id, domain):
                    pass

                def on_load_changed(self, worker_id):
                    pass

            register_router("fine", Fine)
            """,
        )
        assert "C002" not in _active_ids(report)

    def test_router_missing_new_invalidation_hooks_fires(self, tmp_path):
        # The pre-event-bus contract (membership hooks only) is no longer
        # enough: qualification/load changes must reach the router too.
        report = _lint(
            tmp_path,
            """
            from repro.serving.routing import register_router

            class Legacy:
                def route(self, task):
                    return None

                def on_worker_added(self, worker_id):
                    pass

                def on_worker_removed(self, worker_id):
                    pass

            register_router("legacy", Legacy)
            """,
        )
        assert "C002" in _active_ids(report)

    def test_router_inheriting_base_hooks_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.serving.routing import BaseRouter, register_router

            class Derived(BaseRouter):
                def route(self, domain, n_votes):
                    return []

            register_router("derived", Derived)
            """,
        )
        assert "C002" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.serving.routing import register_router

            class Broken:
                pass

            register_router("broken", Broken)  # repro: allow[C002] -- fixture double for a parser test
            """,
        )
        assert "C002" not in _active_ids(report)
        assert "C002" in _suppressed_ids(report)


class TestSelectorSeedC003:
    def test_factory_without_seed_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.core.registry import register_selector

            @register_selector("bad")
            def make_bad(config=None):
                return object()
            """,
        )
        assert "C003" in _active_ids(report)

    def test_factory_with_seed_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.core.registry import register_selector

            @register_selector("good")
            def make_good(config=None, seed=None):
                return object()
            """,
        )
        assert "C003" not in _active_ids(report)

    def test_factory_with_kwargs_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.core.registry import register_selector

            @register_selector("splat")
            def make_splat(**kwargs):
                return object()
            """,
        )
        assert "C003" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.core.registry import register_selector

            @register_selector("stub")
            def make_stub(config=None):  # repro: allow[C003] -- deterministic stub; consumes no randomness
                return object()
            """,
        )
        assert "C003" not in _active_ids(report)
        assert "C003" in _suppressed_ids(report)


class TestSchemaVersionC004:
    def test_payload_without_schema_version_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            RECORD_SCHEMA_VERSION = 3

            class Record:
                def to_dict(self):
                    return {"value": 1}
            """,
            name="store.py",
        )
        assert "C004" in _active_ids(report)

    def test_constant_reference_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            RECORD_SCHEMA_VERSION = 3

            class Record:
                def to_dict(self):
                    return {"schema_version": RECORD_SCHEMA_VERSION, "value": 1}
            """,
            name="store.py",
        )
        assert "C004" not in _active_ids(report)

    def test_delegation_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            RECORD_SCHEMA_VERSION = 3

            class Record:
                def trace_dict(self):
                    return {"schema_version": RECORD_SCHEMA_VERSION}

                def to_dict(self):
                    payload = self.trace_dict()
                    return payload
            """,
            name="store.py",
        )
        assert "C004" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            RECORD_SCHEMA_VERSION = 3

            class Nested:
                # repro: allow[C004] -- nested sub-record; the enclosing report stamps the version
                def to_dict(self):
                    return {"value": 1}
            """,
            name="store.py",
        )
        assert "C004" not in _active_ids(report)
        assert "C004" in _suppressed_ids(report)

    def test_unversioned_module_is_exempt(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            class Record:
                def to_dict(self):
                    return {"value": 1}
            """,
        )
        assert "C004" not in _active_ids(report)


# --------------------------------------------------------------------- #
# O-rules: observability
# --------------------------------------------------------------------- #
class TestMetricNamingO001:
    def test_invalid_literal_name_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry):
                return registry.counter("Bad Name", "help text")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_single_segment_literal_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry):
                return registry.gauge("depth", "help text")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_valid_literal_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry):
                registry.counter("serving.tasks.submitted", "help")
                registry.gauge("pool.depth", "help")
                registry.histogram("serving.route.latency_seconds", "help")
            """,
        )
        assert "O001" not in _active_ids(report)

    def test_fstring_name_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry, layer):
                return registry.counter(f"{layer}.events", "help")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_fstring_name_to_catalog_declaration_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry, layer):
                return registry.metric(f"{layer}.events")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_concatenated_name_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry, layer):
                return registry.histogram(layer + ".latency", "help")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_format_call_fires(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry, layer):
                return registry.counter("{}.events".format(layer), "help")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_metric_name_helper_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.obs.naming import metric_name

            def setup(registry, layer):
                return registry.counter(metric_name(layer, "events"), "help")
            """,
        )
        assert "O001" not in _active_ids(report)

    def test_variable_reference_passes(self, tmp_path):
        # A plain name reference is resolved at runtime, where the registry
        # re-validates against the same grammar.
        report = _lint(
            tmp_path,
            """
            NAME = "serving.tasks.submitted"

            def setup(registry):
                return registry.counter(NAME, "help")
            """,
        )
        assert "O001" not in _active_ids(report)

    def test_keyword_name_argument_checked(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry):
                return registry.counter(name="NotDotted", help="help")
            """,
        )
        assert "O001" in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def setup(registry, layer):
                return registry.counter(f"{layer}.events", "help")  # repro: allow[O001] -- vetted upstream
            """,
        )
        assert "O001" not in _active_ids(report)
        assert "O001" in _suppressed_ids(report)


# --------------------------------------------------------------------- #
# S-rules: safety
# --------------------------------------------------------------------- #
class TestMutableDefaultS001:
    def test_list_literal_default_fires(self, tmp_path):
        report = _lint(tmp_path, "def f(x=[]):\n    return x\n")
        assert "S001" in _active_ids(report)

    def test_factory_call_default_fires(self, tmp_path):
        report = _lint(tmp_path, "def f(x=dict()):\n    return x\n")
        assert "S001" in _active_ids(report)

    def test_none_default_passes(self, tmp_path):
        report = _lint(tmp_path, "def f(x=None):\n    return x or []\n")
        assert "S001" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def f(x=[]):  # repro: allow[S001] -- sentinel list, never mutated
                return x
            """,
        )
        assert "S001" not in _active_ids(report)


class TestSwallowedExceptionS002:
    def test_bare_except_fires_as_warning(self, tmp_path):
        report = _lint(tmp_path, "try:\n    pass\nexcept:\n    pass\n")
        assert "S002" in _active_ids(report)
        assert report.exit_code() == 0  # warnings pass the default gate...
        assert report.exit_code(strict=True) == 1  # ...but fail --strict

    def test_swallowed_exception_fires(self, tmp_path):
        report = _lint(tmp_path, "try:\n    pass\nexcept Exception:\n    x = 1\n")
        assert "S002" in _active_ids(report)

    def test_reraising_handler_passes(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            try:
                pass
            except Exception:
                raise
            """,
        )
        assert "S002" not in _active_ids(report)

    def test_narrow_handler_passes(self, tmp_path):
        report = _lint(tmp_path, "try:\n    pass\nexcept ValueError:\n    pass\n")
        assert "S002" not in _active_ids(report)

    def test_pragma_suppresses(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            try:
                pass
            except Exception:  # repro: allow[S002] -- best-effort cleanup; failure is logged upstream
                pass
            """,
        )
        assert "S002" not in _active_ids(report)
        assert "S002" in _suppressed_ids(report)


# --------------------------------------------------------------------- #
# Engine rules: pragmas and parse failures
# --------------------------------------------------------------------- #
class TestPragmaRules:
    def test_reasonless_pragma_fires_p001_and_does_not_suppress(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import time
            t = time.time()  # repro: allow[D002]
            """,
        )
        active = _active_ids(report)
        assert "P001" in active
        assert "D002" in active  # the reasonless pragma bought nothing

    def test_unknown_rule_key_fires_p002(self, tmp_path):
        report = _lint(tmp_path, "# repro: allow[Z999] -- no such rule\nx = 1\n")
        findings = [f for f in report.active if f.rule_id == "P002"]
        assert len(findings) == 1
        assert "Z999" in findings[0].message

    def test_pragma_keys_are_case_insensitive(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import time
            t = time.time()  # repro: allow[unsorted-json, d002] -- aliases resolve too
            """,
        )
        assert "D002" not in _active_ids(report)
        assert "P002" not in _active_ids(report)

    def test_file_level_pragma_suppresses_every_instance(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            # repro: allow-file[D002] -- benchmark timing loops read perf_counter by design
            import time

            a = time.perf_counter()
            b = time.perf_counter()
            """,
        )
        assert "D002" not in _active_ids(report)
        assert _suppressed_ids(report).count("D002") == 2

    def test_file_level_pragma_only_covers_named_rules(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            # repro: allow-file[D002] -- timing harness
            import time
            import json

            a = time.time()
            print(json.dumps({"a": 1}))
            """,
        )
        assert "D002" not in _active_ids(report)
        assert "D003" in _active_ids(report)


class TestSyntaxErrorE001:
    def test_unparseable_file_becomes_a_finding(self, tmp_path):
        report = _lint(tmp_path, "def broken(:\n    pass\n")
        assert _active_ids(report) == ["E001"]
        assert report.n_files == 1
