"""Generation-rotated, durable checkpoints for the gateway service.

Files are written and read through :mod:`repro.store`, the same store
the fleet's shard checkpoints use: exact ``to_state`` JSON, atomic
fsync'd replaces, a ``manifest.json`` fingerprint (here: the tenant
split) and one corrupt-file policy. This module adds the one thing a
*service* needs that a batch run does not:

* **Generations.** A batch shard writes each checkpoint once; a service
  rewrites its state forever, into numbered, atomically written
  ``checkpoint_<generation>.json`` files. The newest valid one is the
  state to resume, a corrupt one falls back a generation, and old
  generations are pruned so disk use stays bounded.

:meth:`ServiceCheckpointer.load` does not trust bytes on disk: every
candidate generation is round-tripped through
:meth:`TenantAggregate.from_state` before being offered to the server,
and a corrupt one is quarantined to ``<file>.corrupt`` (counted in
``store.checkpoint_corrupt``) — the ``*.corrupt`` name no longer
matches the generation pattern, so later loads skip it for free.

Writes take an internal lock, so the server may rotate from a worker
thread while tests (or an operator) drive saves concurrently.
"""

from __future__ import annotations

import os
import re
import threading

from ..store import (ensure_manifest, fsync_dir, read_or_quarantine,
                     write_json_atomic)
from .tenants import DEFAULT_TENANT_BITS, TenantAggregate

_SCHEMA = 1
_GENERATION_RE = re.compile(r"^checkpoint_(\d{8})\.json$")

#: Generations kept on disk: bounds disk use, and with at least 2 a
#: corrupt newest generation always has a fallback.
KEEP_GENERATIONS = 3


def _restore(payload: dict) -> dict:
    """A generation's snapshot with ``tenants`` parsed into
    ``{tenant_id: TenantAggregate}``; raises on anything unusable."""
    if payload["schema"] != _SCHEMA:
        raise ValueError(f"unknown schema {payload['schema']!r}")
    payload["tenants"] = {
        int(tenant_id): TenantAggregate.from_state(state)
        for tenant_id, state in payload["tenants"].items()}
    return payload


class ServiceCheckpointer:
    """Rotating checkpoint writer/loader for one gateway's state.

    The newest :data:`KEEP_GENERATIONS` generations stay on disk. The
    directory's manifest records ``tenant_bits``
    (:data:`~repro.service.tenants.DEFAULT_TENANT_BITS`): a directory
    written under a different tenant split is *not* corruption — it is
    someone pointing the service at the wrong directory — so
    construction raises :class:`repro.store.CheckpointMismatchError`
    instead of silently recomputing over it, and a directory holding
    generations but no manifest raises
    :class:`repro.store.CheckpointError`.
    """

    def __init__(self, directory: str, durable: bool = True) -> None:
        self.directory = directory
        self.durable = durable
        self._lock = threading.Lock()
        os.makedirs(directory, exist_ok=True)
        existing = self.generations()
        ensure_manifest(directory, {"tenant_bits": DEFAULT_TENANT_BITS},
                        holds_checkpoints=bool(existing))
        self._next_generation = (existing[-1] + 1) if existing else 0

    def _path(self, generation: int) -> str:
        return os.path.join(self.directory,
                            f"checkpoint_{generation:08d}.json")

    # -- writing -------------------------------------------------------------

    def save(self, snapshot: dict) -> str:
        """Write ``snapshot`` as the next generation; returns its path.

        ``snapshot`` carries the server's counters plus
        ``{"tenants": {str(tenant_id): TenantAggregate.to_state()}}``;
        schema and generation are stamped here.
        """
        with self._lock:
            generation = self._next_generation
            self._next_generation += 1
            payload = dict(snapshot)
            payload["schema"] = _SCHEMA
            payload["generation"] = generation
            path = self._path(generation)
            write_json_atomic(path, payload, durable=self.durable)
            self._prune(keep_from=generation)
            return path

    def _prune(self, keep_from: int) -> None:
        cutoff = keep_from - (KEEP_GENERATIONS - 1)
        pruned = False
        for generation in self.generations():
            if generation < cutoff:
                os.unlink(self._path(generation))
                pruned = True
        if pruned and self.durable:
            fsync_dir(self.directory)

    # -- reading -------------------------------------------------------------

    def generations(self) -> list[int]:
        """Generation numbers present on disk, ascending."""
        found = []
        for name in os.listdir(self.directory):
            match = _GENERATION_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def newest_path(self) -> str | None:
        """The newest generation file on disk, or ``None``."""
        generations = self.generations()
        return self._path(generations[-1]) if generations else None

    def load(self) -> dict | None:
        """Newest valid checkpoint, or ``None`` for a fresh start.

        Tries generations newest first, skipping (and quarantining)
        corrupt or schema-invalid ones; a ``CURRENT`` pointer file left
        by an older build is ignored.

        The returned dict has ``tenants`` parsed into
        ``{tenant_id: TenantAggregate}``; other keys are the raw
        snapshot fields (``ingested``, ``decode_errors``, ...).
        """
        with self._lock:
            for generation in reversed(self.generations()):
                payload = read_or_quarantine(self._path(generation),
                                             _restore, self.durable)
                if payload is not None:
                    return payload
            return None
