"""Unified exception hierarchy with stable machine-readable codes.

Every domain error in the reproduction derives from :class:`ReproError`
and carries a ``code`` — a stable, machine-readable slug (``"graph/
no-path"``, ``"memory/unreachable"``) that survives message rewording.
The REST facade (:mod:`repro.control.api`) maps codes to HTTP statuses
through the single :data:`HTTP_STATUS_BY_CODE` table instead of
string-matching exception messages, and every error body it returns is
the versioned ``{"error": <human text>, "code": <slug>}`` shape.

The concrete exception classes keep living in their home modules
(``SwitchError`` in ``repro.net.switch``, ``AuthError`` in
``repro.control.security``, ...) so existing import paths stay valid;
they subclass both :class:`ReproError` and their historical stdlib base
(``RuntimeError``, ``ValueError``, ``PermissionError``) so existing
``except`` clauses keep catching them.

This module must import nothing from the rest of ``repro`` — it is the
root of the package's exception graph.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ReproError",
    "RemoteMemoryError",
    "HTTP_STATUS_BY_CODE",
    "http_status_for",
]


class ReproError(Exception):
    """Base of every domain error; carries a stable ``code`` slug.

    ``details`` holds optional structured context (attempt counts,
    attachment ids...) surfaced by :meth:`describe` for API bodies and
    logs without parsing the human-readable message.
    """

    #: Machine-readable error code; subclasses override the class
    #: attribute. An instance may override it again via ``code=``.
    code: str = "repro/error"

    def __init__(
        self, message: str, *, code: Optional[str] = None, **details: Any
    ):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.details: Dict[str, Any] = details

    def describe(self) -> Dict[str, Any]:
        """Versioned error body: ``{"error", "code"}`` plus details."""
        body: Dict[str, Any] = {"error": str(self), "code": self.code}
        if self.details:
            body["details"] = dict(self.details)
        return body


class RemoteMemoryError(ReproError, RuntimeError):
    """A remote-memory transaction failed permanently.

    Raised by the compute endpoint after its bounded retry/backoff
    budget is exhausted (donor crash, permanently dead link) — the
    structured alternative to hanging the event loop. ``details``
    carries ``endpoint``/``network_id``/``attempts``/``elapsed_s`` so
    the health monitor can map the failure back to an attachment.
    """

    code = "memory/unreachable"


#: The one code -> HTTP status table (satellite: no string matching).
#: 4xx are caller mistakes, 409 is "valid request, conflicting state",
#: 429 is "tenant over quota, retry after releasing", 502 is upstream
#: (donor/link) failure, 503 is "not wired / shedding / draining".
HTTP_STATUS_BY_CODE: Dict[str, int] = {
    "repro/error": 500,
    "auth/denied": 401,
    "mem/address": 400,
    "request/invalid": 400,
    "graph/inconsistent": 409,
    "graph/no-path": 409,
    "switch/circuit": 409,
    "switch/packet-session": 409,
    "control/orchestration": 409,
    "control/unknown-attachment": 404,
    "control/quota-exceeded": 429,
    "control/no-headroom": 503,
    "server/overloaded": 503,
    "server/draining": 503,
    "memory/unreachable": 502,
    "memory/quarantined": 409,
    "resilience/unknown-campaign": 400,
    "resilience/bad-campaign-params": 400,
    "resilience/no-injector": 503,
}


def http_status_for(code: str) -> int:
    """HTTP status for an error code (500 for unknown codes)."""
    return HTTP_STATUS_BY_CODE.get(code, 500)
