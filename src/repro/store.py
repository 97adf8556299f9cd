"""Durable JSON checkpoint files: one write path, one read policy.

The fleet's shard checkpoints (:mod:`repro.fleet.shards`) and the
gateway's rotated generations (:mod:`repro.service.checkpoint`) both
store exact ``to_state`` JSON here, and so share atomic fsync'd writes
(:func:`write_json_atomic`), one corrupt-file policy — quarantine to
``<file>.corrupt``, never delete, never crash
(:func:`read_or_quarantine`) — and a ``manifest.json`` fingerprint
that refuses to resume a directory written by a different run
(:func:`ensure_manifest`).
"""

from __future__ import annotations

import json
import os
from typing import Callable, TypeVar

from .obs.metrics import METRICS

_T = TypeVar("_T")

_MANIFEST = "manifest.json"
_MANIFEST_SCHEMA = 1


class CheckpointError(RuntimeError):
    """Raised for unusable checkpoint directories (unfingerprinted or
    unreadable state that cannot be safely resumed)."""


class CheckpointMismatchError(CheckpointError):
    """Raised when a checkpoint directory's manifest fingerprint does
    not match the run being resumed."""

    def __init__(self, directory: str, mismatched: list[str],
                 expected: dict, found: dict) -> None:
        self.directory = directory
        self.mismatched = mismatched
        detail = ", ".join(
            f"{key}: manifest={found.get(key)!r} plan={expected.get(key)!r}"
            for key in mismatched)
        super().__init__(
            f"checkpoint directory {directory} belongs to a different "
            f"plan ({detail}); delete it or point at a fresh directory")


def write_json_atomic(path: str, payload: dict, durable: bool = True) -> None:
    """Write ``payload`` as JSON such that ``path`` is never torn and —
    with ``durable`` — survives a power cut.

    The file is fsynced *before* the atomic :func:`os.replace`, and the
    parent directory *after* it, so the rename itself is on stable
    storage.
    """
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        # One write of the C-encoded text: json.dump would run the
        # pure-Python chunked encoder, ~5x slower on a gateway snapshot.
        handle.write(json.dumps(payload))
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(temporary, path)  # atomic: never a torn checkpoint
    if durable:
        fsync_dir(os.path.dirname(path) or ".")


def fsync_dir(directory: str) -> None:
    """Flush a directory's entry table (persists renames/creates/unlinks)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_or_quarantine(path: str, restore: Callable[[object], _T],
                       durable: bool = True) -> _T | None:
    """``restore`` applied to the JSON in ``path``; ``None`` when the
    file is absent or unusable.

    ``restore`` validates as it rebuilds and raises on anything it
    cannot use. An unusable file — not JSON, not UTF-8, or rejected by
    ``restore`` — is quarantined: renamed to ``path + ".corrupt"``
    (fsyncing the directory when ``durable``) and counted in
    ``store.checkpoint_corrupt``. A half-written file from a killed
    writer therefore costs a recompute or a fallback, never a crash.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return restore(json.load(handle))
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError, AttributeError,
            ArithmeticError):
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # aggregates' own state errors.
        pass
    METRICS.counter("store.checkpoint_corrupt").inc()
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        return None  # best effort: a vanished or immovable file is skipped
    if durable:
        fsync_dir(os.path.dirname(path) or ".")
    return None


def _manifest_identity(manifest: dict) -> dict:
    if not isinstance(manifest["identity"], dict):
        raise TypeError("manifest identity is not a mapping")
    return manifest["identity"]


def ensure_manifest(directory: str, identity: dict, holds_checkpoints: bool,
                    **info: object) -> None:
    """Fingerprint ``directory`` on first use; refuse a foreign one.

    First use writes ``manifest.json`` (durably) recording ``identity``
    plus the informational ``info`` fields, which are never compared.
    Later uses raise :class:`CheckpointMismatchError` naming every
    identity field that differs. A directory that ``holds_checkpoints``
    but has no readable manifest (absent, or corrupt and quarantined)
    raises :class:`CheckpointError`: its provenance cannot be
    established.
    """
    path = os.path.join(directory, _MANIFEST)
    found = read_or_quarantine(path, _manifest_identity)
    if found is None:
        if holds_checkpoints:
            raise CheckpointError(
                f"checkpoint directory {directory} holds checkpoints but "
                f"no readable {_MANIFEST}; cannot establish their "
                f"provenance — delete the directory to start fresh")
        write_json_atomic(path, {"schema": _MANIFEST_SCHEMA,
                                 "identity": identity, **info})
        return
    mismatched = [key for key in identity if found.get(key) != identity[key]]
    if mismatched:
        raise CheckpointMismatchError(directory, mismatched, identity, found)
