"""CLI argument errors must be *diagnosable from the message alone*.

``tests/test_cli.py`` pins the exit-code contract (2, no traceback); this
suite pins the stricter message contract of lint issue 6's satellite: every
usage error names the offending **value** — the typo'd policy, the exact
bad ``--layout-targets`` chunk — not just the flag that carried it, so a
user (or a CI log reader) never has to re-run with echo debugging.
"""

from __future__ import annotations

import pytest

from repro.cli import main


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


class TestUnknownPolicy:
    def test_unknown_policy_names_value_and_choices(self, capsys):
        err = _usage_error(
            capsys,
            ["schedule", "fm_radio", "--cache", "256", "--policy", "zap"],
        )
        assert "'zap'" in err
        for valid in ("lru", "direct", "opt"):
            assert valid in err

    def test_simulate_subcommand_policy_choices_too(self, capsys):
        err = _usage_error(
            capsys,
            ["schedule", "fm_radio", "--cache", "256", "--policy", "fifo"],
        )
        assert "'fifo'" in err and "--policy" in err


class TestUnknownBackend:
    """``--backend`` rejects unknown names with exit 2 naming the value, on
    every subcommand that accepts the flag."""

    @pytest.mark.parametrize(
        "bogus", ["warp", "threads", "PROCESS", "mpi", "thread"]
    )
    def test_schedule_names_value_and_choices(self, bogus, capsys):
        err = _usage_error(
            capsys,
            ["schedule", "fm_radio", "--cache", "256", "--backend", bogus],
        )
        assert f"'{bogus}'" in err
        for valid in ("serial", "process"):
            assert valid in err

    def test_experiment_rejects_unknown_backend_too(self, capsys):
        err = _usage_error(capsys, ["experiment", "e7", "--backend", "gpu"])
        assert "'gpu'" in err and "--backend" in err

    def test_workers_must_be_an_integer(self, capsys):
        err = _usage_error(
            capsys,
            ["schedule", "fm_radio", "--cache", "256", "--workers", "many"],
        )
        assert "'many'" in err and "--workers" in err

    @pytest.mark.parametrize("argv", [
        ["schedule", "fm_radio", "--cache", "256", "--workers", "2"],
        ["experiment", "e8", "--workers", "2"],
        ["experiment", "e8", "--backend", "serial", "--workers", "2"],
    ])
    def test_workers_needs_the_process_backend(self, argv):
        # --workers sizes a process pool; without one it would do nothing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        assert "--backend process" in str(exc.value.code)


class TestLayoutTargetMessages:
    """Each malformed chunk is echoed back verbatim in the error."""

    def _err(self, capsys, spec):
        return _usage_error(
            capsys,
            ["schedule", "fm_radio", "--cache", "256", "--layout", "swap",
             "--layout-targets", spec],
        )

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("direct:1@bogus", "'direct:1@bogus'"),   # bad weight echoes chunk
            ("direct:1@bogus", "'bogus'"),            # ...and the weight itself
            ("direct:1@-3", "'direct:1@-3'"),
            ("direct:1@-3", "-3"),
            ("direct:1@0", "'direct:1@0'"),           # zero weight names chunk
            ("direct:1@0", "positive"),
            ("direct:1@-0.5", "'direct:1@-0.5'"),     # negative float too
            ("direct:1@inf", "finite"),               # weights must be finite
            ("direct:1@", "'direct:1@'"),             # dangling '@' names chunk
            ("direct:1@", "followed by a weight"),
        ],
    )
    def test_degenerate_weight_is_named(self, capsys, spec, fragment):
        assert fragment in self._err(capsys, spec)

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("plru:1", "'plru'"),                     # unknown policy named
            ("plru:1", "'plru:1'"),                   # inside its chunk
            ("direct:x", "'x'"),                      # non-integer ways named
            ("direct", "'direct' needs POLICY:WAYS"),
        ],
    )
    def test_bad_chunk_is_named(self, capsys, spec, fragment):
        assert fragment in self._err(capsys, spec)

    def test_bad_chunk_named_even_among_valid_ones(self, capsys):
        # the offending element, not merely the whole flag value
        err = self._err(capsys, "lru:2,direct:1@nope,lru:4")
        assert "'direct:1@nope'" in err

    def test_empty_spec_states_expected_grammar(self, capsys):
        err = self._err(capsys, " , ,")
        assert "POLICY:WAYS[@WEIGHT]" in err

    def test_unknown_target_policy_lists_choices(self, capsys):
        err = self._err(capsys, "plru:1")
        assert "lru" in err and "direct" in err and "opt" in err
