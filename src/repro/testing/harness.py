"""Reusable differential-test harness: kernel vs oracle over geometry grids.

Every vectorized engine in this library ships with a deliberately simple
stepwise oracle, and the acceptance bar is *bit-identical per-access
agreement* — exact miss positions, not totals.  Before this module, each
test file hand-rolled the same loop (run both engines, zip, assert); as the
kernel×oracle matrix grows (policies × organizations × placements), those
copies drift.  :func:`differential_grid` is the one loop: it runs the
kernel once over the whole grid (so sweeps exercise the kernels'
shared-pass amortization exactly as production does), runs the oracle per
point, and on the first divergence raises an ``AssertionError`` that
pinpoints the access — position, block id, both verdicts, and the recent
window of the trace — instead of a bare ``assert list == list``.

:func:`replay_kernel` and :func:`stepwise_oracle` adapt the two engines of
a policy name (:mod:`repro.runtime.replay` / :mod:`repro.cache.policy`) to
the harness signature, so a policy's whole differential suite is one line::

    differential_grid(replay_kernel("lru"), stepwise_oracle("lru"),
                      geometries, trace)

The harness is engine-agnostic: ``kernel(blocks, grid) -> masks`` and
``oracle(blocks, point) -> mask`` may be anything comparable per access —
downstream users validating new policies or new replay kernels get the
same pretty-printed first divergence for free.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "differential_grid",
    "replay_kernel",
    "stepwise_oracle",
    "format_divergence",
]

#: ``kernel(blocks, grid)`` answers the whole grid at once (the production
#: calling convention — shared passes amortize across points).
Kernel = Callable[[np.ndarray, Sequence], Sequence[Sequence[bool]]]
#: ``oracle(blocks, point)`` answers one grid point (the reference loop).
Oracle = Callable[[np.ndarray, object], Sequence[bool]]


def replay_kernel(policy: str) -> Kernel:
    """The vectorized replay engine of ``policy`` as a harness kernel.

    The returned kernel also accepts an optional ``chunk_words=`` keyword:
    when given, the trace replays as chunks of that many accesses
    (:class:`~repro.runtime.streaming.ArrayChunkSource`) instead of one, so
    the same differential grid pins the carried-state replay against the
    stepwise oracle too.
    """
    from repro.runtime.replay import replay_miss_masks
    from repro.runtime.streaming import ArrayChunkSource

    def kernel(
        blocks: np.ndarray, grid: Sequence, chunk_words: Optional[int] = None
    ) -> List[np.ndarray]:
        source = (
            blocks if chunk_words is None
            else ArrayChunkSource(blocks, chunk_words=chunk_words)
        )
        return replay_miss_masks(source, list(grid), policy=policy)

    return kernel


def stepwise_oracle(policy: str) -> Oracle:
    """The stepwise engine of ``policy`` as a harness oracle."""
    from repro.cache.policy import stepwise_trace_misses

    def oracle(blocks: np.ndarray, point: object) -> List[bool]:
        trace = blocks.tolist() if hasattr(blocks, "tolist") else list(blocks)
        return [bool(m) for m in stepwise_trace_misses(trace, point, policy)]

    return oracle


def _describe_point(point: object) -> str:
    describe = getattr(point, "describe", None)
    return describe() if callable(describe) else repr(point)


def format_divergence(
    blocks: np.ndarray,
    point: object,
    kernel_mask: Sequence[bool],
    oracle_mask: Sequence[bool],
    index: int,
    context: int = 8,
) -> str:
    """Human-readable report of the first diverging access.

    Shows the geometry, the position, and the last ``context`` accesses
    leading up to it with both engines' verdicts — enough to replay the
    failure by hand without re-running anything.
    """
    lo = max(0, index - context)
    lines = [
        f"first divergence at access {index} (block {int(blocks[index])}) "
        f"on {_describe_point(point)}:",
        f"  kernel says {'MISS' if kernel_mask[index] else 'HIT'}, "
        f"oracle says {'MISS' if oracle_mask[index] else 'HIT'}",
        f"  trailing window [{lo}:{index + 1}] (pos: block kernel/oracle):",
    ]
    for i in range(lo, index + 1):
        k = "M" if kernel_mask[i] else "h"
        o = "M" if oracle_mask[i] else "h"
        marker = "  <-- diverges" if i == index else ""
        lines.append(f"    {i:>8d}: {int(blocks[i]):>8d}  {k}/{o}{marker}")
    return "\n".join(lines)


def _check_masks(
    blocks: np.ndarray,
    points: Sequence,
    kernel_masks: Sequence,
    oracle_masks: Sequence[List[bool]],
    context: int,
    label: str,
) -> None:
    if len(kernel_masks) != len(points):
        raise AssertionError(
            f"{label}kernel answered {len(kernel_masks)} masks for "
            f"{len(points)} grid points"
        )
    n = blocks.shape[0]
    for point, kmask, olist in zip(points, kernel_masks, oracle_masks):
        klist = [bool(b) for b in (kmask.tolist() if hasattr(kmask, "tolist") else kmask)]
        if len(klist) != n or len(olist) != n:
            raise AssertionError(
                f"{label}mask length mismatch on {_describe_point(point)}: "
                f"kernel {len(klist)}, oracle {len(olist)}, trace {n}"
            )
        if klist != olist:
            index = next(i for i, (a, b) in enumerate(zip(klist, olist)) if a != b)
            raise AssertionError(
                label + format_divergence(blocks, point, klist, olist, index, context)
            )


def differential_grid(
    kernel: Kernel,
    oracle: Oracle,
    grids: Iterable,
    workload: Sequence[int],
    context: int = 8,
    chunk_sizes: Sequence[int] = (),
) -> int:
    """Assert per-access agreement of ``kernel`` and ``oracle`` over a grid.

    ``workload`` is a block trace (any integer sequence); ``grids`` the
    sweep points (geometries, hierarchy pairs, ...).  The kernel is invoked
    once with the whole grid — exactly the production sweep shape — and the
    oracle once per point.  Lengths must match the trace, and every access's
    verdict must be identical; the first divergence raises an
    ``AssertionError`` carrying :func:`format_divergence` output.

    ``chunk_sizes`` adds a streaming axis: for each size ``s`` the kernel
    is re-invoked as ``kernel(blocks, points, chunk_words=s)`` (the
    :func:`replay_kernel` adapter routes that through the out-of-core
    engine) and the masks must again match the oracle bit for bit — the
    oracle runs once per point and pins every chunking.  Divergence
    messages from a streaming pass are prefixed ``[chunk_words=s]``.

    Returns the number of (point, engine) comparisons made —
    ``len(points) * (1 + len(chunk_sizes))`` — useful for asserting a
    suite really covered its promised ≥N-point grid.
    """
    blocks = np.ascontiguousarray(np.asarray(workload, dtype=np.int64))
    points = list(grids)
    sizes = list(chunk_sizes)
    oracle_masks = [[bool(m) for m in oracle(blocks, point)] for point in points]
    kernel_masks = kernel(blocks, points)
    _check_masks(blocks, points, kernel_masks, oracle_masks, context, "")
    for s in sizes:
        chunked = kernel(blocks, points, chunk_words=s)  # type: ignore[call-arg]
        _check_masks(
            blocks, points, chunked, oracle_masks, context, f"[chunk_words={s}] "
        )
    return len(points) * (1 + len(sizes))
