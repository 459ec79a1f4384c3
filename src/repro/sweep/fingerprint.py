"""Code fingerprinting for cache invalidation.

A cached sweep result is only valid for the exact source tree that
produced it. :func:`source_fingerprint` hashes every ``*.py`` file under
the installed ``repro`` package (path + content), so any edit anywhere
in the simulation stack changes every :class:`~repro.sweep.RunSpec` key
and cold-runs the whole sweep — conservative by design: a stale number
is worse than a recomputed one.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache

__all__ = ["source_fingerprint"]

#: Directory of the ``repro`` package itself (``.../src/repro``).
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """One hex digest covering every ``repro/**/*.py`` source file.

    Cached per process: the tree cannot change underneath a running
    sweep without also invalidating the process's imported modules.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(_PACKAGE_ROOT)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, _PACKAGE_ROOT).replace(os.sep, "/")
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()

