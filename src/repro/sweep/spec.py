"""Declarative, hashable description of one simulation run.

A :class:`RunSpec` names *what* to run (a target in one of two
addressable namespaces), *how* (JSON-canonical keyword arguments) and
*against which code* (a fingerprint of the source tree). Two specs with
the same :attr:`RunSpec.key` are guaranteed to describe the same
computation on the same code, which is what makes the
content-addressed result cache sound.

Target namespaces (resolved by :mod:`repro.sweep.engine`):

* ``slice:<name>``  — a figure slice from ``repro.figures.SLICES``
  (the unit the cache stores when regenerating paper figures);
* ``figure:<name>`` — a whole figure function from
  ``repro.figures.FIGURES``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .fingerprint import source_fingerprint

__all__ = ["RunSpec", "make_spec"]


def _canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class RunSpec:
    """One hashable unit of sweep work. Build via :func:`make_spec`."""

    target: str
    kwargs_json: str
    fingerprint: str

    @property
    def kwargs(self) -> Dict[str, Any]:
        return json.loads(self.kwargs_json)

    @property
    def key(self) -> str:
        """Content address: sha256 over the canonical spec envelope."""
        envelope = _canonical_json(
            {
                "target": self.target,
                "kwargs": json.loads(self.kwargs_json),
                "fingerprint": self.fingerprint,
            }
        )
        return hashlib.sha256(envelope.encode("utf-8")).hexdigest()


def make_spec(
    target: str,
    *,
    fingerprint: Optional[str] = None,
    **kwargs: Any,
) -> RunSpec:
    """Build a :class:`RunSpec` with a canonicalized kwargs payload.

    The fingerprint defaults to the ``repro`` source tree's. Kwargs
    must be JSON-serializable — tuples become lists, and the target
    sees the round-tripped values, so a cold run and a cached one
    describe identical arguments.
    """
    kwargs_json = _canonical_json(kwargs)
    if fingerprint is None:
        fingerprint = source_fingerprint()
    return RunSpec(
        target=target,
        kwargs_json=kwargs_json,
        fingerprint=fingerprint,
    )
