"""Content-addressed on-disk result cache for sweep runs.

Layout: one JSON file per result at ``<root>/<sha256>.json`` where the
name is the spec's :attr:`~repro.sweep.RunSpec.key`. The key already
commits to the target, kwargs and source fingerprint, so
invalidation is automatic — editing any ``repro/**/*.py`` file changes
every key and old entries are simply never read again. ``prune()``
deletes entries whose recorded fingerprint no longer matches the
current tree.

The default root is ``benchmarks/results/cache/`` at the repository
root (override with the ``root`` argument). Writes are atomic (temp
file + ``os.replace``) so a reader never observes torn JSON, even from
a run killed mid-write.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from .spec import RunSpec

__all__ = ["ResultCache", "default_cache_dir"]

#: repo root = src/repro/sweep/cache.py -> four levels up.
_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)


def default_cache_dir() -> str:
    return os.path.join(_REPO_ROOT, "benchmarks", "results", "cache")


class ResultCache:
    """sha256-addressed store of JSON-serializable sweep results."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # -- read side -------------------------------------------------------------
    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The stored envelope for ``spec``, or ``None`` on a miss.

        Unreadable or mismatching entries (corrupt JSON, a key
        collision that disagrees on the fingerprint) count as misses.
        """
        path = self._path(spec.key)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            envelope.get("fingerprint") != spec.fingerprint
            or envelope.get("target") != spec.target
        ):
            self.misses += 1
            return None
        self.hits += 1
        return envelope

    # -- write side ------------------------------------------------------------
    def put(self, spec: RunSpec, result: Any, elapsed_s: float) -> str:
        """Persist one result atomically; returns the file path."""
        os.makedirs(self.root, exist_ok=True)
        envelope = {
            "key": spec.key,
            "target": spec.target,
            "kwargs": spec.kwargs,
            "fingerprint": spec.fingerprint,
            "elapsed_s": round(elapsed_s, 6),
            "result": result,
        }
        path = self._path(spec.key)
        fd, tmp_path = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    # -- maintenance -----------------------------------------------------------
    def entries(self) -> List[str]:
        """Keys of every entry currently on disk."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        )

    def prune(self, keep_fingerprint: str) -> int:
        """Delete entries not produced by ``keep_fingerprint``."""
        removed = 0
        for key in self.entries():
            path = self._path(key)
            try:
                with open(path) as handle:
                    envelope = json.load(handle)
                stale = envelope.get("fingerprint") != keep_fingerprint
            except (OSError, ValueError):
                stale = True
            if stale:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for key in self.entries():
            try:
                os.unlink(self._path(key))
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResultCache({self.root!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
