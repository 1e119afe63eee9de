"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.errors import CacheConfigError
from repro.graphs.io import save_graph
from repro.graphs.topologies import pipeline
from repro.mem.placement import STRATEGIES


class TestCli:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "fm_radio" in out and "beamformer" in out

    def test_describe_app(self, capsys):
        assert main(["describe", "fm_radio"]) == 0
        assert "lpf" in capsys.readouterr().out

    def test_describe_json_file(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        save_graph(pipeline([8] * 4, name="filegraph"), path)
        assert main(["describe", path]) == 0
        assert "filegraph" in capsys.readouterr().out

    def test_unknown_graph_exits(self):
        with pytest.raises(SystemExit):
            main(["describe", "not_a_graph"])

    def test_partition(self, capsys):
        assert main(["partition", "des_rounds", "--cache", "192"]) == 0
        out = capsys.readouterr().out
        assert "well-ordered: True" in out

    def test_schedule_pipeline(self, capsys):
        assert main(["schedule", "des_rounds", "--cache", "192", "--inputs", "256"]) == 0
        out = capsys.readouterr().out
        assert "misses" in out

    def test_schedule_dag(self, capsys):
        assert main(["schedule", "mp3_subband", "--cache", "256", "--inputs", "128"]) == 0
        assert "misses" in capsys.readouterr().out

    def test_schedule_two_level(self, capsys):
        assert main(
            ["schedule", "fm_radio", "--cache", "256", "--inputs", "256",
             "--l2-frames", "128"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=two_level" in out
        assert "L2        : 1024 words (128 frames)" in out

    def test_schedule_chunk_words_compiles_out_of_core(self, tmp_path, capsys):
        import json

        from repro.obs import names as obs_names

        argv = ["schedule", "fm_radio", "--cache", "256", "--inputs", "256"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "run.json"
        assert main(argv + ["--chunk-words", "512", "--metrics-out", str(out)]) == 0
        chunked = capsys.readouterr().out

        def result(text):
            return [line for line in text.splitlines() if line.startswith("result")]

        assert result(chunked) == result(plain) != []
        metrics = json.loads(out.read_text())["metrics"]
        assert obs_names.STREAM_COMPILE in metrics["spans"]
        assert metrics["counters"][obs_names.STREAM_SPILLED_BYTES] > 0
        assert metrics["counters"][obs_names.STREAM_CHUNKS] > 1

    @pytest.mark.parametrize("extra, raises", [
        ([], None),
        (["--l2-frames", "8"], SystemExit),  # the command fails after set-up
        (["--chunk-words", "0"], CacheConfigError),
    ])
    def test_runtime_flags_end_with_the_command(self, tmp_path, extra, raises):
        from repro.runtime import backend, trace_cache

        def defaults():
            return backend.default_chunk_words(), trace_cache.default_cache()

        before = defaults()
        argv = ["schedule", "fm_radio", "--cache", "256", "--inputs", "64",
                "--chunk-words", "512", "--cache-dir", str(tmp_path)] + extra
        if raises is None:
            assert main(argv) == 0
        else:
            with pytest.raises(raises):
                main(argv)
        assert defaults() == before

    def test_schedule_l2_smaller_than_l1_exits(self):
        with pytest.raises(SystemExit, match="invalid cache organization"):
            main(["schedule", "fm_radio", "--cache", "256", "--inputs", "256",
                  "--l2-frames", "8"])

    def test_schedule_l2_ways_without_l2_frames_exits(self):
        with pytest.raises(SystemExit, match="--l2-frames"):
            main(["schedule", "fm_radio", "--cache", "256", "--inputs", "256",
                  "--l2-ways", "4"])

    def test_schedule_l2_conflicts_with_policy_and_layout(self):
        with pytest.raises(SystemExit, match="two-level"):
            main(["schedule", "fm_radio", "--cache", "256", "--inputs", "256",
                  "--l2-frames", "128", "--policy", "opt"])
        with pytest.raises(SystemExit, match="layout"):
            main(["schedule", "des_rounds", "--cache", "192", "--inputs", "256",
                  "--l2-frames", "128", "--layout", "swap"])

    def test_experiment_by_id(self, capsys):
        assert main(["experiment", "a3"]) == 0
        assert "LRU" in capsys.readouterr().out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_experiment_without_driver_lists_known_ids(self):
        # a10 is inside the dispatch ranges but has no driver
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "a10"])
        msg = str(exc.value.code)
        assert msg.startswith("unknown experiment 'a10' (known: ")
        known = msg.split("known: ")[1].rstrip(")").split(", ")
        assert "a10" not in known and "a11" not in known
        assert {"e1", "e15", "a1", "a9", "a12"} <= set(known)

    def test_export_dot_stdout(self, capsys):
        assert main(["export-dot", "mp3_subband"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_export_dot_partitioned_file(self, tmp_path, capsys):
        out_file = str(tmp_path / "g.dot")
        assert main(["export-dot", "mp3_subband", "--cache", "256", "-o", out_file]) == 0
        text = open(out_file).read()
        assert "cluster_0" in text


class TestCliPlacementSurface:
    """The --layout-targets / --gap-budget surface: bad specs must die as
    argparse usage errors (exit code 2, no traceback), and the happy paths
    must run end to end."""

    @pytest.mark.parametrize(
        "spec",
        [
            "direct:1@-3",        # negative weight
            "direct:1@0",         # zero weight
            "direct:1@inf",       # non-finite weight
            "direct:1@abc",       # non-numeric weight
            "plru:1",             # unknown policy
            "direct",             # missing ways
            "direct:x",           # non-integer ways
            "direct:-2",          # negative ways
            "",                   # empty spec
            " , ,",               # only separators
        ],
    )
    def test_bad_layout_targets_are_argparse_errors(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "des_rounds", "--layout", "swap",
                  "--layout-targets", spec, "--inputs", "64"])
        assert exc.value.code == 2  # argparse usage error, not a traceback
        assert "--layout-targets" in capsys.readouterr().err

    @pytest.mark.parametrize("targets", [None, "direct:1,lru:2"])
    @pytest.mark.parametrize("layout", STRATEGIES)
    def test_every_layout_runs_end_to_end(self, layout, targets, capsys):
        """Each strategy reports the direct-mapped misses of the layout it
        kept, never more than the seed's, and the measured result is that
        layout's."""
        argv = ["schedule", "des_rounds", "--ways", "1", "--policy", "direct",
                "--layout", layout, "--layout-budget", "10", "--inputs", "64"]
        if targets:
            argv += ["--layout-targets", targets]
        if layout == "topo" and targets:
            with pytest.raises(SystemExit, match="--layout-targets"):
                main(argv)
            return
        assert main(argv) == 0
        lines = {
            key.strip(): value
            for key, value in (ln.split(":", 1) for ln in capsys.readouterr().out.splitlines())
        }
        result = int(re.search(r"misses=(\d+)", lines["result"]).group(1))
        if layout == "topo":
            assert "layout" not in lines
            return
        note = lines["layout"].strip()
        if targets:
            assert note.startswith(f"{layout} placement over 2 targets (")
            counts = re.search(r"direct:1 \(\d+w\) (\d+)->(\d+)", note)
        else:
            assert note.startswith(f"{layout} placement, direct misses ")
            counts = re.search(r"direct misses (\d+) -> (\d+)", note)
        seed, kept = map(int, counts.groups())
        assert kept <= seed and result == kept

    def test_unknown_layout_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "des_rounds", "--layout", "anneal", "--inputs", "64"])
        assert exc.value.code == 2
        assert "invalid choice: 'anneal'" in capsys.readouterr().err

    def test_removed_index_scheme_flag_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "des_rounds", "--index-scheme", "xor",
                  "--inputs", "64"])
        assert exc.value.code == 2
        assert "--index-scheme" in capsys.readouterr().err

    def test_negative_gap_budget_is_clean_error(self):
        with pytest.raises(SystemExit, match="invalid placement request"):
            main(["schedule", "des_rounds", "--cache", "256", "--ways", "1",
                  "--policy", "direct", "--layout", "swap",
                  "--gap-budget", "-1", "--inputs", "64"])

    def test_zero_layout_budget_is_clean_error(self):
        # even where the search would be skipped (fully associative), a
        # budget that could not score the start is a bad request
        with pytest.raises(SystemExit, match="invalid placement request: budget"):
            main(["schedule", "des_rounds", "--layout", "swap",
                  "--layout-budget", "0", "--inputs", "64"])

    def test_layout_target_ways_zero_means_fully_associative(self, capsys):
        # even when --ways narrowed the execution cache, a WAYS=0 target is
        # the fully-associative organization, not the narrowed one: a
        # direct:0 target must run (direct over all frames), where the
        # narrowed 2-way geometry would be rejected by the direct kernel
        rc = main(
            ["schedule", "des_rounds", "--cache", "256", "--ways", "2",
             "--layout", "swap", "--layout-targets", "direct:0,lru:2",
             "--layout-budget", "10", "--inputs", "64"]
        )
        assert rc == 0
        assert "over 2 targets" in capsys.readouterr().out

    def test_layout_targets_require_non_topo_layout(self):
        with pytest.raises(SystemExit, match="--layout-targets"):
            main(["schedule", "des_rounds", "--layout-targets", "direct:1",
                  "--inputs", "64"])

    def test_schedule_multi_target_layout_end_to_end(self, capsys):
        rc = main(
            ["schedule", "des_rounds", "--cache", "256", "--ways", "1",
             "--policy", "direct", "--layout", "swap",
             "--layout-targets", "direct:1@2,lru:2,lru:4@0.5",
             "--gap-budget", "2", "--layout-budget", "30", "--inputs", "64"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "over 3 targets" in out
        assert "never worse than the seed at any target" in out

    def test_experiment_a9_dispatch(self, capsys):
        # the registry must resolve a9 (smallest workload the driver allows)
        from repro.cli import build_parser

        args = build_parser().parse_args(["experiment", "a9"])
        assert args.id == "a9"


class TestCliExtended:
    def test_experiment_extension_ids(self, capsys):
        from repro.cli import main

        assert main(["experiment", "e12"]) == 0
        assert "cache_model" in capsys.readouterr().out

    def test_misscurve_pipeline(self, capsys):
        from repro.cli import main

        assert main(["misscurve", "des_rounds", "--cache", "128", "--inputs", "64"]) == 0
        out = capsys.readouterr().out
        assert "miss curves" in out and "partitioned" in out

    def test_misscurve_dag(self, capsys):
        from repro.cli import main

        assert main(["misscurve", "mp3_subband", "--cache", "256", "--inputs", "64"]) == 0
        assert "naive" in capsys.readouterr().out
