"""Detector checkpointing.

Streaming deployments restart: the process is upgraded, the edge device
reboots, the orbit pass ends.  A detector checkpoint captures the model
parameters, training set, drift-detector state and scorer history so the
stream can resume where it left off.

Implementation: the whole detector object graph is pure Python + numpy,
so the checkpoint is a pickle.  The usual pickle caveat applies — only
load checkpoints you produced yourself.

Versioning policy: ``CHECKPOINT_VERSION`` is bumped whenever the pickled
detector structure changes in a way an older (or newer) library would
silently mis-resume — *not* only when unpickling would crash.  Version 5
drops dead gradients and caches the μ/σ thresholds: ``Parameter`` pickles
without ``grad`` (every trainer zeroes it before its first backward, so
it was never read back; a restored Parameter starts at zeros), which
takes about a fifth off a ``usad+ares+musigma`` checkpoint, and
``MuSigmaChange`` carries the feature means of its reference thresholds
(``_ref_means``), which a v4 detector lacks.  ``FineTuneEvent`` lost
its pre-fine-tune loss field within version 5, because no step reads a
fine-tune event: a v5 checkpoint written before the drop unpickles its
events with a stale attribute that nothing reads, and an event written
after it reads back in the older library with that field's class
default.  Version 4
covers KSWIN's rank counters: the detector's pickled state changed layout
(a sorted reference plus rank histograms in place of per-channel sorted
pools), so a v3 checkpoint would resume with a stale sorted-pool list the
detector no longer reads and no counters, silently demoted to the batch
check.  Version 3 covered the fused-fleet work: the batched forward uses
tile geometry 1
(``repro.models.base.BATCH_TILE``), whose GEMM row bits differ from the
earlier fixed-tile layout, so a v2 checkpoint resumed here would diverge
bitwise from its recorded scores mid-stream; nn modules also stopped
pickling their forward-pass scratch (``Module.__getstate__``), which
changes the payload structure and makes checkpoints identical whether or
not the detector ever ran inside a :class:`~repro.streaming.fleet.FleetEngine`
(arena row views pickle to the same bytes as standalone arrays).
Version 2 covered the chunked-engine state (mirrored score ring,
nonconformity snapshot/restore machinery, lazily materialized training
sets) and the telemetry-free pickle contract: detectors never persist
their telemetry sink (see ``StreamingAnomalyDetector.__getstate__``),
so a restored detector always starts with the no-op default.  Older
checkpoints are rejected rather than resumed with stale state.  Resume
fidelity is pinned by
``tests/test_checkpoint_roundtrip.py``: a mid-stream save/load must
reproduce the remaining score sequence bitwise for every registry
algorithm and chunk size.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from repro.core.detector import StreamingAnomalyDetector

#: bump when the detector's persisted structure changes incompatibly.
CHECKPOINT_VERSION = 5


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the rename atomic against *process* crashes,
    but the new directory entry itself lives in the page cache until the
    directory inode is flushed — after a power cut the old name (or no
    name) can reappear.  Platforms without directory fds (or filesystems
    that refuse to fsync one) degrade silently to the rename-only
    guarantee.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(Path(path), flags)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(
    path: str | Path, write: Callable[[BinaryIO], object], durable: bool = False
) -> Path:
    """Replace ``path`` with what ``write(handle)`` writes, atomically.

    ``write`` fills a temporary file in the target directory, which
    :func:`os.replace` moves over ``path``: a crash mid-write never
    leaves a truncated file there, and a failed attempt leaves no
    temporary file behind.  ``durable=True`` also fsyncs the file before
    the rename and the directory after it, so the new file survives a
    power loss, not just a process crash.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        if durable:
            fsync_dir(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def save_detector(
    detector: StreamingAnomalyDetector,
    path: str | Path,
    durable: bool = False,
) -> Path:
    """Write a checkpoint of the full detector state.

    Besides the detector, the payload records a small metadata block
    (library/numpy versions, stream clock, model name) so a checkpoint
    can be identified without unpickling model state.

    The write is atomic (:func:`atomic_write`): a crash mid-write can
    never leave a truncated checkpoint at ``path``.  ``durable=True``
    also fsyncs it, so it survives a power loss — the contract WAL
    barrier checkpoints rely on.
    """
    from repro import __version__

    path = Path(path)
    payload = {
        "version": CHECKPOINT_VERSION,
        "detector": detector,
        "meta": {
            "repro": __version__,
            "numpy": np.__version__,
            "t": detector.t,
            "model": type(detector.model).__name__,
            **detector.scorer.describe(),
            **detector.nonconformity.describe(),
        },
    }
    return atomic_write(
        path,
        lambda handle: pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL),
        durable=durable,
    )


def _read_payload(path: str | Path) -> dict:
    """Unpickle a checkpoint payload, rejecting foreign or stale files."""
    with open(Path(path), "rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or "detector" not in payload:
        raise ValueError(f"{path} is not a detector checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {payload.get('version')} is incompatible "
            f"with library version {CHECKPOINT_VERSION}"
        )
    return payload


def peek_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint's metadata block without keeping the detector.

    The ``meta`` block (library/numpy versions, stream clock ``t``, model
    name, scorer/nonconformity descriptions) identifies a checkpoint
    cheaply enough for fleet-level decisions — a router re-homing a
    stream from a spill file needs ``t`` (the resume sequence number)
    before it issues the ``create``.

    Raises:
        ValueError: if the file is not a checkpoint or its version is
            incompatible (same contract as :func:`load_detector`).
    """
    return dict(_read_payload(path).get("meta", {}))


def transfer_checkpoint(
    src: str | Path, dst: str | Path, durable: bool = False
) -> dict:
    """Copy a checkpoint's bytes to a new location, atomically.

    The spill-bytes leg of a live session migration: the source worker
    spilled the detector with :func:`save_detector`; the router moves the
    file into the target worker's spill directory byte-for-byte, so the
    rehydrated detector is bitwise the one that was evicted.  The source
    file is validated first (version check via :func:`peek_checkpoint`)
    and the destination write is :func:`atomic_write`, the same
    crash-safety contract as :func:`save_detector` — including the
    ``durable=True`` fsync (file + directory) for power-loss safety.

    Returns the checkpoint's ``meta`` block (the caller needs ``t`` for
    seq-number continuity).
    """
    src, dst = Path(src), Path(dst)
    meta = peek_checkpoint(src)
    data = src.read_bytes()
    dst.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(dst, lambda handle: handle.write(data), durable=durable)
    return meta


def load_detector(path: str | Path) -> StreamingAnomalyDetector:
    """Load a checkpoint written by :func:`save_detector`.

    The restored detector carries the no-op telemetry default regardless
    of what was attached when it was saved; re-attach a sink if the
    resumed run should be traced.

    Raises:
        ValueError: if the file is not a detector checkpoint or was
            written by an incompatible library version.
    """
    detector = _read_payload(path)["detector"]
    if not isinstance(detector, StreamingAnomalyDetector):
        raise ValueError(f"{path} does not contain a StreamingAnomalyDetector")
    return detector
