"""Run manifests: one JSON summary + one JSON-lines event log per run.

A *run* is one CLI invocation (``repro schedule --metrics-out m.json``)
or any scope a caller wraps in :class:`capture_run`.  While the run is
open, instrumentation is force-enabled inside an isolated
:class:`~repro.obs.core.capture` scope and every completed span streams
one line to ``<out>.events.jsonl`` (sibling of the manifest path).  On
exit the manifest is written to ``out``:

``run_id``
    ``<command>-<config_digest[:12]>`` — stable across re-runs of the
    same command with the same configuration, so ablation matrices can
    file results under reproducible keys.
``git``
    ``git describe --always --dirty --tags`` of the working tree, or
    ``"unknown"`` outside a git checkout.
``config`` / ``config_digest``
    The caller's configuration mapping and the SHA-256 of its canonical
    JSON form.
``wall_s`` / ``cpu_s``
    Whole-run totals; the per-phase breakdown lives in
    ``metrics.spans`` (the run itself is the ``run`` span).
``metrics``
    The full registry snapshot: counters, gauges, histograms, series and
    span aggregates recorded during the run.

``python -m repro obs-report manifest.json`` renders the manifest as a
per-phase time/count table (:mod:`repro.obs.report`).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, TextIO

from repro.obs import core
from repro.obs import names as obs_names

__all__ = ["config_digest", "git_describe", "capture_run"]


def config_digest(config: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of ``config``'s canonical (sorted) JSON form.

    Non-JSON values are stringified, so argparse namespaces round-trip;
    two configs digest equal exactly when their canonical forms match.
    """
    canonical = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_describe(root: Optional[Path] = None) -> str:
    """``git describe --always --dirty --tags``, or ``"unknown"``."""
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unknown"


class capture_run:
    """Context manager producing a run manifest + event log; see module docs.

    Exposes ``run_id`` after enter and ``snapshot`` / ``manifest`` after
    exit.  The manifest is written even when the body raises (flagged
    ``"ok": false``), so crashed runs still leave evidence.
    """

    def __init__(
        self,
        command: str,
        config: Mapping[str, Any],
        out: "str | Path",
    ) -> None:
        self.command = command
        self.config = dict(config)
        self.out = Path(out)
        self.events_path = self.out.with_suffix(".events.jsonl")
        self.config_digest = config_digest(self.config)
        self.run_id = f"{command}-{self.config_digest[:12]}"
        self.snapshot: Optional[Dict[str, Any]] = None
        self.manifest: Optional[Dict[str, Any]] = None
        self._events: Optional[TextIO] = None

    # ------------------------------------------------------------ events
    def _emit(self, kind: str, payload: Dict[str, Any]) -> None:
        if self._events is None:  # pragma: no cover - sink after close
            return
        record = {"event": kind, "ts": time.time()}
        record.update(payload)
        self._events.write(json.dumps(record, sort_keys=True, default=str) + "\n")

    # ----------------------------------------------------------- scoping
    def __enter__(self) -> "capture_run":
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self._events = self.events_path.open("w", encoding="utf-8")
        self._started = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._capture = core.capture(enabled=True)
        self._capture.__enter__()
        self._previous_sink = core.set_event_sink(self._emit)
        self._emit(
            "run_start",
            {
                "run_id": self.run_id,
                "command": self.command,
                "config_digest": self.config_digest,
            },
        )
        self._span = core.span(obs_names.RUN)
        self._span.__enter__()
        return self

    def __exit__(self, exc_type: object, *exc: object) -> bool:
        self._span.__exit__(None, None, None)
        core.set_event_sink(self._previous_sink)
        self._emit("run_end", {"run_id": self.run_id, "ok": exc_type is None})
        assert self._events is not None
        self._events.close()
        self._events = None
        self._capture.__exit__(None, None, None)
        self.snapshot = self._capture.snapshot
        self.manifest = {
            "run_id": self.run_id,
            "command": self.command,
            "git": git_describe(),
            "config_digest": self.config_digest,
            "config": self.config,
            "ok": exc_type is None,
            "started_unix": self._started,
            "wall_s": time.perf_counter() - self._wall0,
            "cpu_s": time.process_time() - self._cpu0,
            "events": self.events_path.name,
            "metrics": self.snapshot,
        }
        self.out.write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        return False
