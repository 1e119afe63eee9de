"""Process-wide runtime defaults: the replay chunk size.

Replay and placement scoring run in the calling process.  What a caller
can still set process-wide is the chunk size the replay views an
in-memory trace in (:func:`configure`, the CLI's ``--chunk-words``), read
back by :func:`default_chunk_words`.

Three entry points keep a ``backend`` keyword (and :func:`configure` a
``workers`` one) for callers written against the older execution-backend
API: :func:`configure`, :func:`~repro.runtime.compiled.simulate_trace` and
:func:`~repro.mem.facility.multiswap_refine`.  They accept ``"serial"`` or
``None`` (and ``workers=None``) and change nothing; any other value raises
:class:`~repro.errors.CacheConfigError` (:func:`normalize_backend`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import CacheConfigError

__all__ = [
    "normalize_backend",
    "configure",
    "default_chunk_words",
]

_CHUNK_WORDS: Optional[int] = None


def normalize_backend(backend: Optional[str]) -> str:
    """Check a ``backend=`` keyword: ``"serial"`` or ``None``, the calling
    process, which is where everything runs."""
    if backend not in (None, "serial"):
        raise CacheConfigError(
            f"unknown backend {backend!r}; replay and placement scoring run "
            f"in the calling process: pass 'serial' or leave it out"
        )
    return "serial"


def configure(
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_words: Optional[int] = None,
) -> Tuple[str, Optional[int], Optional[int]]:
    """Set the process-wide default replay chunk size.

    This is what the CLI's ``--chunk-words`` installs so experiment drivers
    (which take no chunking parameter) inherit it.  Returns the previous
    ``(backend, workers, chunk_words)`` triple so callers can restore it
    (``configure(*previous)``); ``backend`` is always ``"serial"`` and
    ``workers`` always ``None``, and only those values are accepted.  The
    initial default, ``None``, replays an in-memory trace as one chunk.
    """
    normalize_backend(backend)
    if workers is not None:
        raise CacheConfigError(
            f"workers={workers!r}: replay runs in the calling process; "
            f"leave workers out"
        )
    if chunk_words is not None and chunk_words < 1:
        raise CacheConfigError(f"chunk_words must be >= 1, got {chunk_words}")
    global _CHUNK_WORDS
    previous = ("serial", None, _CHUNK_WORDS)
    _CHUNK_WORDS = chunk_words
    return previous


def default_chunk_words() -> Optional[int]:
    """The configured default replay chunk size, or ``None`` (monolithic).

    :func:`repro.runtime.compiled.simulate_trace` consults this whenever a
    caller passes no explicit ``chunk_words=``, so installing a default
    (the CLI's ``--chunk-words``) streams every replay in the process.
    """
    return _CHUNK_WORDS
