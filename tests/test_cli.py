"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graphs.io import save_graph
from repro.graphs.topologies import pipeline


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
