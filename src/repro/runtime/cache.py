"""Content-addressed on-disk result store.

Task results are memoized under the sha256 digest of their
:class:`~repro.runtime.task.CacheKey` — ``(dataset fingerprint, algorithm
name+params, metric id, code epoch)`` — so a re-run of an unchanged grid is
pure cache hits and an interrupted run resumes from its completed prefix.

Layout::

    <root>/objects/<first two hex chars>/<digest>.pkl

Each entry is a pickle of ``{"key": <key components>, "value": <result>}``;
the stored key components are verified on read so a digest collision or a
foreign file can never masquerade as a hit.  Writes are atomic (temp file in
the same directory + ``os.replace``) so a killed run leaves no torn entries.
Corrupt entries (truncated pickles, unreadable files) are deleted on sight
and reported as misses.  The store is size-bounded: when ``max_bytes`` is
exceeded after a write, least-recently-used entries (by access time, falling
back to modification time) are evicted until the store fits.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from pathlib import Path
from typing import Any, Iterator

from ..obs import metrics as obs_metrics
from ..utility.atomic import atomic_writer
from .task import CacheKey

#: Sentinel distinguishing "miss" from a cached ``None`` value.
MISS = object()


class CacheError(ValueError):
    """Raised for invalid cache configurations."""


@dataclasses.dataclass
class CacheStats:
    """Counters accumulated by one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt: int = 0

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (for manifests and reports)."""
        return dataclasses.asdict(self)


class ResultCache:
    """A content-addressed, size-bounded pickle store for task results.

    Parameters
    ----------
    root:
        Directory holding the store (created on demand).
    max_bytes:
        Soft size bound; ``None`` disables eviction.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._objects = self.root / "objects"

    # -- path helpers --------------------------------------------------------

    def path_for(self, key: CacheKey) -> Path:
        """The on-disk path addressing ``key``."""
        digest = key.digest()
        return self._objects / digest[:2] / f"{digest}.pkl"

    def _entries(self) -> Iterator[Path]:
        if not self._objects.is_dir():
            return iter(())
        return self._objects.glob("*/*.pkl")

    # -- store protocol ------------------------------------------------------

    def get(self, key: CacheKey) -> Any:
        """The value stored under ``key``, or :data:`MISS`.

        A corrupt or mismatched entry is deleted and reported as a miss —
        recomputing is always safe, serving a torn result never is.
        """
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
            entry = pickle.loads(payload)
            stored = entry["key"]
            if stored != dataclasses.asdict(key):
                raise ValueError(f"entry key mismatch: {stored!r}")
            value = entry["value"]
        except FileNotFoundError:
            self.stats.misses += 1
            obs_metrics().inc("cache.miss")
            return MISS
        except Exception:
            # Truncated pickle, unreadable file, foreign payload: recover
            # by dropping the entry.
            self.stats.corrupt += 1
            self.stats.misses += 1
            obs_metrics().inc("cache.corrupt_healed")
            obs_metrics().inc("cache.miss")
            try:
                path.unlink()
            except OSError:
                pass
            return MISS
        self.stats.hits += 1
        obs_metrics().inc("cache.hit")
        obs_metrics().inc("cache.read_bytes", len(payload))
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return value

    def put(self, key: CacheKey, value: Any) -> Path:
        """Store ``value`` under ``key`` atomically; returns the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {"key": dataclasses.asdict(key), "value": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with atomic_writer(path, "wb") as handle:
            handle.write(payload)
        self.stats.writes += 1
        obs_metrics().inc("cache.write")
        obs_metrics().inc("cache.written_bytes", len(payload))
        if self.max_bytes is not None:
            self._evict(protect=path)
        return path

    def _evict(self, protect: Path | None = None) -> None:
        """Delete least-recently-used entries until the store fits."""
        entries = []
        total = 0
        for entry in self._entries():
            try:
                stat = entry.stat()
            except OSError:
                continue
            recency = max(stat.st_atime, stat.st_mtime)
            entries.append((recency, entry, stat.st_size))
            total += stat.st_size
        if self.max_bytes is None or total <= self.max_bytes:
            return
        for _, entry, size in sorted(entries, key=lambda item: item[0]):
            if protect is not None and entry == protect:
                continue
            try:
                entry.unlink()
            except OSError:
                continue
            self.stats.evictions += 1
            obs_metrics().inc("cache.evict")
            total -= size
            if total <= self.max_bytes:
                break

    # -- maintenance ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Total bytes currently held by the store."""
        return sum(entry.stat().st_size for entry in self._entries())

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self._entries():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                continue
        return removed
