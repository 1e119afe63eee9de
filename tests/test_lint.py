"""repro.lint: the analyzer is clean on the live tree, and every rule both
passes and fires on synthetic violations (exact file:line anchors).

The synthetic projects use the ``Project(files={...})`` overlay: the rules
see *only* the given relative-path -> source mapping, so each test builds
the smallest tree that violates (or satisfies) exactly one invariant.
"""

from __future__ import annotations

import json

import pytest

from repro.lint import Project, all_rules, main, run_lint
from repro.lint.rules import BENCH_EXEMPT, DTYPE_CONTRACTS


def _violations(files, rules):
    return run_lint(Project(files=files), rules=rules).violations


def _messages(files, rules):
    return [str(v) for v in _violations(files, rules)]


class TestLiveTree:
    """The shipped tree satisfies every invariant the linter enforces."""

    def test_all_rules_clean(self):
        report = run_lint()
        assert report.rules_run == tuple(r.id for r in all_rules())
        assert report.violations == [], report.format()

    def test_all_rule_families_registered(self):
        # R5 is retired, and its id is not reused
        assert [r.id for r in all_rules()] == ["R1", "R2", "R3", "R4", "R6"]

    def test_bench_exemptions_all_carry_reasons(self):
        for exp_id, reason in BENCH_EXEMPT.items():
            assert "bench" in reason, (exp_id, reason)


# ---------------------------------------------------------------------------
# R1 — registry completeness
# ---------------------------------------------------------------------------
_R1_REGISTRATION = (
    'register_policy(ReplacementPolicy(name="zap", description="d"))\n'
)


class TestR1RegistryCompleteness:
    def _files(self, **overrides):
        files = {
            "src/repro/cache/zap.py": _R1_REGISTRATION,
            "src/repro/runtime/replay.py": (
                'register_replay_kernel("zap", _zap_kernel)\n'
            ),
            "src/repro/cli.py": 'POLICY_CHOICES = ("zap",)\n',
            "docs/REPLAY.md": "# replay\n### `zap` — the zap policy\n",
            "README.md": "",
            "tests/test_zap.py": (
                "from repro.testing.harness import differential_grid, "
                "replay_kernel, stepwise_oracle\n"
                'differential_grid(replay_kernel("zap"), '
                'stepwise_oracle("zap"), [], [])\n'
            ),
        }
        files.update(overrides)
        return files

    def test_complete_policy_passes(self):
        assert _violations(self._files(), ["R1"]) == []

    def test_missing_kernel_reported_with_file_line(self):
        files = self._files(**{"src/repro/runtime/replay.py": ""})
        (v,) = _violations(files, ["R1"])
        assert v.rule == "R1"
        assert v.path == "src/repro/cache/zap.py" and v.line == 1
        assert "register_replay_kernel" in v.message and "'zap'" in v.message
        assert str(v).startswith("src/repro/cache/zap.py:1: R1:")

    def test_missing_differential_test_reported(self):
        files = self._files(**{"tests/test_zap.py": "import os\n"})
        (v,) = _violations(files, ["R1"])
        assert "differential test" in v.message

    def test_test_without_differential_grid_does_not_count(self):
        # naming the policy in a test that never uses the harness is not a pin
        files = self._files(
            **{"tests/test_zap.py": 'x = replay_kernel("zap")\n'}
        )
        (v,) = _violations(files, ["R1"])
        assert "differential test" in v.message

    def test_missing_docs_heading_reported(self):
        files = self._files(**{"docs/REPLAY.md": "# replay\nzap in prose only\n"})
        (v,) = _violations(files, ["R1"])
        assert "docs/REPLAY.md heading" in v.message

    def test_missing_cli_surface_reported(self):
        files = self._files(**{"src/repro/cli.py": "pass\n"})
        (v,) = _violations(files, ["R1"])
        assert "CLI" in v.message

    def test_missing_required_file_is_itself_a_violation(self):
        files = self._files()
        del files["docs/REPLAY.md"]
        msgs = _messages(files, ["R1"])
        assert any("docs/REPLAY.md is missing" in m for m in msgs)

    def test_incomplete_policy_counts_every_gap(self):
        files = {
            "src/repro/cache/zap.py": _R1_REGISTRATION,
            "src/repro/runtime/replay.py": "",
            "src/repro/cli.py": "",
            "docs/REPLAY.md": "# replay\n",
            "README.md": "",
        }
        vs = _violations(files, ["R1"])
        assert len(vs) == 4  # kernel, test, docs heading, CLI
        assert all(v.path == "src/repro/cache/zap.py" for v in vs)


# ---------------------------------------------------------------------------
# R2 — experiment completeness
# ---------------------------------------------------------------------------
_R2_CLI = (
    "def cmd_experiment(args):\n"
    "    prefix = {\n"
    '        **{f"e{i}": f"experiment_e{i}_" for i in range(1, 2)},\n'
    '        **{f"a{i}": f"ablation_a{i}_" for i in range(1, 2)},\n'
    "    }.get(key)\n"
)


class TestR2ExperimentCompleteness:
    def _files(self, **overrides):
        files = {
            "src/repro/analysis/experiments.py": (
                "def experiment_e1_demo():\n    return []\n"
            ),
            "src/repro/cli.py": _R2_CLI,
            "README.md": "| E1 | demo | `experiment_e1_demo` |\n",
            "tests/test_e1_demo.py": (
                "from repro.analysis.experiments import experiment_e1_demo\n"
            ),
        }
        files.update(overrides)
        return files

    def test_complete_experiment_passes(self):
        assert _violations(self._files(), ["R2"]) == []

    def test_driver_referenced_only_by_a_bench_is_reported(self):
        files = self._files()
        files["benchmarks/bench_e1_demo.py"] = files.pop("tests/test_e1_demo.py")
        (v,) = _violations(files, ["R2"])
        assert "'e1'" in v.message and "tests/test_*.py" in v.message

    def test_missing_cli_dispatch_reported(self):
        files = self._files(
            **{
                "src/repro/analysis/experiments.py": (
                    "def experiment_e1_demo():\n    return []\n"
                    "def experiment_e2_extra():\n    return []\n"
                ),
                "README.md": "`experiment_e1_demo` `experiment_e2_extra`\n",
                "tests/test_e1_demo.py": (
                    "from repro.analysis.experiments import "
                    "experiment_e1_demo, experiment_e2_extra\n"
                ),
            }
        )
        (v,) = _violations(files, ["R2"])
        assert v.path == "src/repro/analysis/experiments.py" and v.line == 3
        assert "'e2'" in v.message and "CLI" in v.message

    def test_unrecognizable_dispatch_is_reported_once(self):
        files = self._files(**{"src/repro/cli.py": "def cmd_experiment(a):\n    pass\n"})
        msgs = _messages(files, ["R2"])
        assert any("cannot recover the experiment dispatch" in m for m in msgs)

    def test_missing_benchmark_reported_unless_exempt(self):
        files = self._files()
        del files["tests/test_e1_demo.py"]
        (v,) = _violations(files, ["R2"])
        assert "tests/test_*.py" in v.message and "'e1'" in v.message

    def test_documented_exemption_silences_benchmark_gap(self):
        some_exempt_id = next(iter(BENCH_EXEMPT))  # e.g. "a12"
        n = some_exempt_id[1:]
        files = {
            "src/repro/analysis/experiments.py": (
                f"def ablation_{some_exempt_id}_demo():\n    return []\n"
            ),
            "src/repro/cli.py": _R2_CLI.replace(
                "range(1, 2)},\n        **{f\"a{i}\": f\"ablation_a{i}_\" "
                "for i in range(1, 2)",
                f"range(1, 2)}},\n        **{{f\"a{{i}}\": f\"ablation_a{{i}}_\" "
                f"for i in range({n}, {int(n) + 1})",
            ),
            "README.md": f"`ablation_{some_exempt_id}_demo`\n",
        }
        msgs = _messages(files, ["R2"])
        assert not any("tests/test_*.py" in m for m in msgs), msgs

    def test_missing_readme_row_reported(self):
        files = self._files(**{"README.md": "nothing here\n"})
        (v,) = _violations(files, ["R2"])
        assert "README.md row" in v.message


# ---------------------------------------------------------------------------
# R3 — hot-path purity
# ---------------------------------------------------------------------------
class TestR3HotPathPurity:
    def test_clean_hot_path_passes(self):
        files = {
            "src/repro/runtime/replay.py": (
                "from repro.cache.policy import get_policy\n"
                "from repro.cache.opt import next_occurrences\n"
            ),
            "src/repro/runtime/compiled.py": (
                "from repro.runtime.executor import build_memory_plan\n"
            ),
        }
        assert _violations(files, ["R3"]) == []

    def test_executor_import_reported_with_line(self):
        files = {
            "src/repro/runtime/replay.py": (
                "import numpy as np\n"
                "from repro.runtime.executor import Executor\n"
            ),
            "src/repro/runtime/compiled.py": "",
        }
        (v,) = _violations(files, ["R3"])
        assert (v.path, v.line) == ("src/repro/runtime/replay.py", 2)
        assert "Executor" in v.message

    @pytest.mark.parametrize(
        "stmt",
        [
            "from repro.cache.lru import LRUCache\n",
            "from repro.cache.hierarchy import TwoLevelCache\n",
            "from repro.cache.opt import simulate_opt\n",
            "from repro.testing.oracles import assert_trace_equivalent\n",
            "import repro.testing.oracles\n",
        ],
    )
    def test_each_banned_import_fires(self, stmt):
        files = {
            "src/repro/runtime/compiled.py": stmt,
            "src/repro/runtime/replay.py": "",
        }
        vs = _violations(files, ["R3"])
        assert len(vs) == 1 and vs[0].path == "src/repro/runtime/compiled.py"

    def test_analysis_modules_may_not_import_the_executor(self):
        # the experiment drivers measure on the compiled path: a stepwise
        # engine imported at module level or inside a driver is reported
        files = {
            "src/repro/runtime/replay.py": "",
            "src/repro/runtime/compiled.py": "",
            "src/repro/analysis/experiments.py": (
                "from repro.runtime.compiled import measure_compiled\n"
                "from repro.runtime.executor import ExecutionResult, Executor\n"
            ),
            "src/repro/analysis/latency.py": (
                "def experiment_e14():\n"
                "    from repro.cache.lru import LRUCache\n"
            ),
            "src/repro/analysis/sweeps.py": (
                "from repro.runtime.executor import ExecutionResult\n"
            ),
        }
        vs = _violations(files, ["R3"])
        assert [(v.path, v.line) for v in vs] == [
            ("src/repro/analysis/experiments.py", 2),
            ("src/repro/analysis/latency.py", 2),
        ]
        assert "'Executor'" in vs[0].message and "'LRUCache'" in vs[1].message


# ---------------------------------------------------------------------------
# R4 — dtype contracts
# ---------------------------------------------------------------------------
_R4_DOC = '"""doc: int64, uint8, int16, bool arrays."""\n'


class TestR4DtypeContracts:
    def test_contract_covers_hot_path_modules(self):
        assert set(DTYPE_CONTRACTS) == {
            "src/repro/runtime/compiled.py",
            "src/repro/runtime/replay.py",
            "src/repro/runtime/streaming.py",
        }

    def _files(self, compiled_body=""):
        return {
            "src/repro/runtime/compiled.py": _R4_DOC + compiled_body,
            "src/repro/runtime/replay.py": _R4_DOC,
        }

    def test_explicit_contract_dtypes_pass(self):
        files = self._files(
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int64)\n"
            "b = np.asarray([1], dtype=np.uint8)\n"
            "c = np.empty(0, dtype=bool)\n"
        )
        assert _violations(files, ["R4"]) == []

    def test_missing_dtype_reported_with_line(self):
        files = self._files("import numpy as np\nx = np.zeros(4)\n")
        (v,) = _violations(files, ["R4"])
        assert (v.path, v.line) == ("src/repro/runtime/compiled.py", 3)
        assert "without an explicit dtype" in v.message

    def test_off_contract_dtype_reported(self):
        files = self._files(
            "import numpy as np\ny = np.zeros(4, dtype=np.float32)\n"
        )
        (v,) = _violations(files, ["R4"])
        assert "float32" in v.message and "contract" in v.message

    def test_undocumented_contract_dtype_reported(self):
        files = self._files()
        files["src/repro/runtime/replay.py"] = '"""doc: int64 and bool."""\n'
        (v,) = _violations(files, ["R4"])
        assert "'int16'" in v.message and "docstring" in v.message

    def test_non_constructor_numpy_calls_ignored(self):
        files = self._files(
            "import numpy as np\n"
            "n = np.count_nonzero(np.asarray([1], dtype=np.int64))\n"
            "m = np.concatenate([])\n"
        )
        assert _violations(files, ["R4"]) == []

    def test_line_suppression_comment_filters_violation(self):
        files = self._files(
            "import numpy as np\n"
            "x = np.zeros(4)  # repro-lint: disable=R4\n"
        )
        report = run_lint(Project(files=files), rules=["R4"])
        assert report.violations == [] and report.suppressed == 1

    def test_suppression_on_preceding_line_counts(self):
        files = self._files(
            "import numpy as np\n"
            "# repro-lint: disable=R4\n"
            "x = np.zeros(4)\n"
        )
        assert _violations(files, ["R4"]) == []

    def test_file_wide_suppression(self):
        files = self._files(
            "# repro-lint: disable-file=R4\n"
            "import numpy as np\n"
            "x = np.zeros(4)\n"
            "y = np.zeros(4, dtype=np.float16)\n"
        )
        assert _violations(files, ["R4"]) == []

    def test_suppressing_one_rule_keeps_others(self):
        files = self._files(
            "from repro.cache.lru import LRUCache  # repro-lint: disable=R4\n"
        )
        assert _violations(files, ["R4"]) == []
        assert len(_violations(files, ["R3"])) == 1


# ---------------------------------------------------------------------------
# R6 — obs name registry + import-light obs package
# ---------------------------------------------------------------------------
_R6_NAMES = (
    'CACHE_HITS = "trace_cache.hits"\n'
    'REPLAY = "replay"\n'
)


class TestR6ObsNameRegistry:
    def _files(self, **overrides):
        files = {
            "src/repro/obs/names.py": _R6_NAMES,
            "src/repro/runtime/widget.py": (
                "from repro.obs import core as obs\n"
                "from repro.obs import names as obs_names\n"
                "def f():\n"
                "    obs.add(obs_names.CACHE_HITS, 1)\n"
                "    with obs.span(obs_names.REPLAY, policy='lru'):\n"
                "        pass\n"
            ),
        }
        files.update(overrides)
        return files

    def test_registered_names_pass(self):
        assert _violations(self._files(), ["R6"]) == []

    def test_literal_registered_value_passes(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    'obs.add("trace_cache.hits", 1)\n'
                )
            }
        )
        assert _violations(files, ["R6"]) == []

    def test_unregistered_literal_reported(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    'obs.add("bogus.counter", 1)\n'
                )
            }
        )
        (v,) = _violations(files, ["R6"])
        assert (v.path, v.line) == ("src/repro/runtime/widget.py", 2)
        assert "bogus.counter" in v.message
        assert "repro.obs.names" in v.message

    def test_unknown_names_attribute_reported(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    "from repro.obs import names as obs_names\n"
                    "obs.add(obs_names.NO_SUCH_NAME, 1)\n"
                )
            }
        )
        (v,) = _violations(files, ["R6"])
        assert v.line == 3 and "NO_SUCH_NAME" in v.message

    def test_dynamic_name_reported(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    "def f(metric):\n"
                    "    obs.add(metric, 1)\n"
                )
            }
        )
        (v,) = _violations(files, ["R6"])
        assert v.line == 3 and "dynamic name" in v.message

    def test_dynamic_name_suppressible(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    "def f(metric):\n"
                    "    obs.add(metric, 1)  # repro-lint: disable=R6\n"
                )
            }
        )
        report = run_lint(Project(files=files), rules=["R6"])
        assert report.violations == [] and report.suppressed == 1

    def test_bare_emitter_import_checked(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import add\n"
                    'add("bogus.counter", 1)\n'
                )
            }
        )
        (v,) = _violations(files, ["R6"])
        assert v.line == 2 and "bogus.counter" in v.message

    def test_constant_imported_from_names_passes(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    "from repro.obs.names import CACHE_HITS\n"
                    "obs.add(CACHE_HITS, 1)\n"
                )
            }
        )
        assert _violations(files, ["R6"]) == []

    def test_unrelated_add_calls_ignored(self):
        files = self._files(
            **{
                "src/repro/runtime/widget.py": (
                    "from repro.obs import core as obs\n"
                    "class Bag:\n"
                    "    def add(self, name, n):\n"
                    "        pass\n"
                    "def f(bag, metric):\n"
                    "    bag.add(metric, 1)\n"
                )
            }
        )
        assert _violations(files, ["R6"]) == []

    def test_heavy_import_in_obs_reported(self):
        files = self._files(
            **{
                "src/repro/obs/core.py": (
                    "import numpy as np\n"
                    "from repro.runtime.compiled import simulate_trace\n"
                )
            }
        )
        msgs = _messages(files, ["R6"])
        assert len(msgs) == 2
        assert any("numpy" in m for m in msgs)
        assert any("repro.runtime.compiled" in m for m in msgs)
        assert all("import-light" in m for m in msgs)

    def test_lazy_heavy_import_in_obs_passes(self):
        files = self._files(
            **{
                "src/repro/obs/core.py": (
                    "def snapshot_sizes():\n"
                    "    import numpy as np\n"
                    "    return np.zeros(1)\n"
                )
            }
        )
        assert _violations(files, ["R6"]) == []


# ---------------------------------------------------------------------------
# runner + CLI behavior
# ---------------------------------------------------------------------------
class TestRunnerAndCli:
    def test_crashing_rule_becomes_a_violation(self):
        from repro.lint.core import LintReport, register_rule, _RULES

        @register_rule("R99", "self-test", "always crashes")
        def _boom(project):
            raise RuntimeError("kaput")

        try:
            report = run_lint(Project(files={}), rules=["R99"])
            assert isinstance(report, LintReport)
            (v,) = report.violations
            assert "crashed" in v.message and "kaput" in v.message
        finally:
            del _RULES["R99"]

    def test_unknown_rule_id_raises_keyerror(self):
        with pytest.raises(KeyError, match="R77"):
            run_lint(Project(files={}), rules=["R77"])

    def test_violations_sorted_by_path_line(self):
        files = {
            "src/repro/runtime/replay.py": (
                "from repro.testing.oracles import x\n"
                "from repro.runtime.executor import Executor\n"
            ),
            "src/repro/runtime/compiled.py": (
                "from repro.cache.lru import LRUCache\n"
            ),
        }
        vs = _violations(files, ["R3"])
        assert [(v.path, v.line) for v in vs] == [
            ("src/repro/runtime/compiled.py", 1),
            ("src/repro/runtime/replay.py", 1),
            ("src/repro/runtime/replay.py", 2),
        ]

    def test_cli_clean_on_live_tree(self, capsys):
        assert main([]) == 0
        assert "repro.lint: ok" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("R1", "R2", "R3", "R4", "R6"):
            assert rid in out
        assert "R5" not in out

    def test_cli_rule_subset_and_json(self, capsys):
        assert main(["--rules", "R3,R6", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_cli_unknown_rule_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--rules", "R9"])
        assert exc.value.code == 2
        assert "R9" in capsys.readouterr().err

    def test_cli_reports_violations_nonzero(self, tmp_path, capsys):
        # a root missing every anchor file: the linter must fail loudly,
        # not crash — exercised through --root end to end
        (tmp_path / "src").mkdir()
        assert main(["--root", str(tmp_path), "--rules", "R3"]) == 1
        out = capsys.readouterr().out
        assert "repro.lint: FAIL" in out and "replay.py is missing" in out


class TestR2ServiceBenchReference:
    """The trace cache must stay benchmarked."""

    def _files(self, bench="TraceCache(p)\n", with_service=True):
        files = {
            "src/repro/analysis/experiments.py": (
                "def experiment_e1_demo():\n    return []\n"
            ),
            "src/repro/cli.py": _R2_CLI,
            "README.md": "| E1 | demo | `experiment_e1_demo` |\n",
            "tests/test_e1_demo.py": (
                "from repro.analysis.experiments import experiment_e1_demo\n"
            ),
            "benchmarks/bench_trace_engine.py": bench,
        }
        if with_service:
            files["src/repro/runtime/trace_cache.py"] = "class TraceCache:\n    pass\n"
        return files

    def test_benchmarked_service_modules_pass(self):
        assert _violations(self._files(), ["R2"]) == []

    def test_unbenchmarked_trace_cache_reported(self):
        (v,) = _violations(self._files(bench="simulate_trace(t)\n"), ["R2"])
        assert v.path == "src/repro/runtime/trace_cache.py"
        assert "TraceCache" in v.message and "bench_trace_engine" in v.message

    def test_overlay_without_service_modules_is_exempt(self):
        # synthetic projects that omit the modules owe no benchmark
        assert _violations(self._files(bench="", with_service=False), ["R2"]) == []


class TestR3ServiceModules:
    """backend/trace_cache obey the same hot-path purity contract."""

    def _files(self, backend="", trace_cache=""):
        return {
            "src/repro/runtime/replay.py": "",
            "src/repro/runtime/compiled.py": "",
            "src/repro/runtime/backend.py": backend,
            "src/repro/runtime/trace_cache.py": trace_cache,
        }

    def test_clean_service_modules_pass(self):
        files = self._files(
            backend="from repro.runtime.replay import replay_miss_masks\n",
            trace_cache="import numpy as np\n",
        )
        assert _violations(files, ["R3"]) == []

    def test_backend_importing_executor_reported(self):
        files = self._files(
            backend="from repro.runtime.executor import Executor\n"
        )
        (v,) = _violations(files, ["R3"])
        assert (v.path, v.line) == ("src/repro/runtime/backend.py", 1)
        assert "Executor" in v.message

    def test_trace_cache_importing_testing_reported(self):
        files = self._files(
            trace_cache="from repro.testing.harness import differential_grid\n"
        )
        (v,) = _violations(files, ["R3"])
        assert v.path == "src/repro/runtime/trace_cache.py"
        assert "repro.testing" in v.message

    def test_absent_service_modules_are_not_required(self):
        files = {
            "src/repro/runtime/replay.py": "",
            "src/repro/runtime/compiled.py": "",
        }
        assert _violations(files, ["R3"]) == []
