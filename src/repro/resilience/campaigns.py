"""Scheduled fault campaigns: macro-faults driven by the sim clock.

A *campaign* is a declarative description of a macro-fault (a cable
dies, a link flaps, a lender browns out or crashes) that, when armed,
schedules deterministic state changes on a set of
:class:`~repro.net.faults.FaultInjector` instances through the
simulator's event queue. Campaigns are plain frozen dataclasses: the
same campaign armed at the same sim time with the same seeded RNG
produces the same event sequence, so chaos runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from ..errors import ReproError
from ..net.faults import FaultInjector
from ..obs import events as _events
from ..sim.rng import SeededRNG

__all__ = [
    "FaultCampaign",
    "LinkKill",
    "LinkFlap",
    "Brownout",
    "LenderCrash",
    "UnknownCampaignError",
    "CampaignParamError",
    "CampaignParam",
    "CAMPAIGNS",
    "CAMPAIGN_PARAMS",
    "campaign_catalogue",
    "validate_campaign_params",
    "make_campaign",
    "ensure_injector",
    "make_rest_fault_hook",
]


class UnknownCampaignError(ReproError, ValueError):
    """Campaign name not in the catalogue."""

    code = "resilience/unknown-campaign"


class CampaignParamError(UnknownCampaignError):
    """Campaign parameter unknown, mistyped, or out of range.

    Subclasses :class:`UnknownCampaignError` so callers that treated
    every catalogue mismatch as one error class keep working; the
    distinct ``code`` still routes to 400 with a sharper slug.
    """

    code = "resilience/bad-campaign-params"


@dataclass(frozen=True)
class CampaignParam:
    """Typed schema of one campaign parameter.

    This is the single source of truth for what a campaign accepts:
    :func:`make_campaign` and the REST fault hook validate against it,
    and ``GET /v1/faults`` serves it as the discoverable catalogue.
    """

    name: str
    kind: str  # "float" (all campaign knobs today are seconds/probabilities)
    default: float
    minimum: float
    maximum: float
    doc: str

    def validate(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CampaignParamError(
                f"parameter {self.name!r} must be a number, "
                f"got {value!r}"
            )
        value = float(value)
        if not self.minimum <= value <= self.maximum:
            raise CampaignParamError(
                f"parameter {self.name!r}={value!r} outside "
                f"[{self.minimum!r}, {self.maximum!r}]"
            )
        return value

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "doc": self.doc,
        }


_AT_S = CampaignParam(
    "at_s", "float", 0.0, 0.0, 10.0,
    "sim delay (seconds) from arming to the fault taking effect",
)
_DURATION_S = CampaignParam(
    "duration_s", "float", 10e-6, 0.0, 10.0,
    "how long the degraded window lasts before restoration",
)
_BROWNOUT_DURATION_S = CampaignParam(
    "duration_s", "float", 50e-6, 0.0, 10.0,
    "how long the degraded window lasts before restoration",
)
_DROP_PROBABILITY = CampaignParam(
    "drop_probability", "float", 0.2, 0.0, 1.0,
    "per-frame Bernoulli drop probability during the window",
)

#: name -> ordered parameter schemas; consumed by :func:`make_campaign`,
#: the REST fault hook, and ``GET /v1/faults``.
CAMPAIGN_PARAMS: Dict[str, Tuple[CampaignParam, ...]] = {
    "link-kill": (_AT_S,),
    "link-flap": (_AT_S, _DURATION_S),
    "brownout": (_AT_S, _BROWNOUT_DURATION_S, _DROP_PROBABILITY),
    "lender-crash": (_AT_S,),
}


def validate_campaign_params(name: str, params: Dict[str, Any]) -> Dict[str, float]:
    """Check ``params`` against the campaign's schema table.

    Returns the validated (float-coerced) parameters. Raises
    :class:`UnknownCampaignError` for an unknown campaign and
    :class:`CampaignParamError` for unknown names, wrong types, or
    out-of-range values.
    """
    if name not in CAMPAIGN_PARAMS:
        raise UnknownCampaignError(
            f"unknown campaign {name!r} "
            f"(have: {', '.join(sorted(CAMPAIGN_PARAMS))})"
        )
    schema = {spec.name: spec for spec in CAMPAIGN_PARAMS[name]}
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise CampaignParamError(
            f"campaign {name!r} does not take {', '.join(unknown)} "
            f"(takes: {', '.join(spec.name for spec in CAMPAIGN_PARAMS[name])})"
        )
    return {
        key: schema[key].validate(value) for key, value in params.items()
    }


def campaign_catalogue() -> List[Dict[str, Any]]:
    """JSON-able campaign catalogue with parameter schemas."""
    entries = []
    for name in sorted(CAMPAIGNS):
        cls = CAMPAIGNS[name]
        entries.append({
            "name": name,
            "doc": (cls.__doc__ or "").strip().splitlines()[0],
            "params": [
                spec.describe() for spec in CAMPAIGN_PARAMS[name]
            ],
        })
    return entries


def ensure_injector(
    link, rng: Optional[SeededRNG] = None
) -> FaultInjector:
    """Install (or return) the fault injector on a serial link.

    Links are built clean; campaigns graft the injector on after the
    fact so fault domains can be targeted per-host at runtime.
    """
    if getattr(link, "faults", None) is None:
        link.faults = FaultInjector(rng=rng)
    return link.faults


@dataclass(frozen=True)
class FaultCampaign:
    """Base: a fault armed ``at_s`` seconds of *sim delay* from now."""

    at_s: float = 0.0

    #: Catalogue key (subclasses override).
    name = "noop"

    def arm(self, sim, injectors: Iterable[FaultInjector],
            agent=None) -> None:
        raise NotImplementedError

    def describe(self) -> Dict:
        return {"campaign": self.name, "at_s": self.at_s}

    def _fire(self, sim, kind: str, fields: Dict, action, *args):
        """Run a scheduled fault action, journaling it at fire time.

        The event is emitted inside the scheduled call — not at arm
        time — so the journal records the sim-time the fault actually
        took effect, in event order with everything else. Schedule
        order and the action itself are unchanged, so seeded chaos
        runs stay byte-identical. ``fields`` ride along positionally
        because ``sim.schedule`` forwards positional args only.
        """
        action(*args)
        if _events.ENABLED:
            _events.emit(sim.now, kind, campaign=self.name, **fields)


@dataclass(frozen=True)
class LinkKill(FaultCampaign):
    """Permanent link death: every frame drops from ``at_s`` on."""

    name = "link-kill"

    def arm(self, sim, injectors, agent=None) -> None:
        for injector in injectors:
            sim.schedule(self.at_s, self._fire, sim, "fault.link_down",
                         {}, injector.set_down, True)


@dataclass(frozen=True)
class LinkFlap(FaultCampaign):
    """Transient outage: down at ``at_s``, back up ``duration_s`` later."""

    duration_s: float = 10e-6
    name = "link-flap"

    def arm(self, sim, injectors, agent=None) -> None:
        for injector in injectors:
            sim.schedule(self.at_s, self._fire, sim, "fault.link_down",
                         {}, injector.set_down, True)
            sim.schedule(self.at_s + self.duration_s, self._fire, sim,
                         "fault.link_up", {}, injector.set_down, False)

    def describe(self) -> Dict:
        return {**super().describe(), "duration_s": self.duration_s}


@dataclass(frozen=True)
class Brownout(FaultCampaign):
    """Degraded window: Bernoulli frame loss at ``drop_probability``."""

    duration_s: float = 50e-6
    drop_probability: float = 0.2
    name = "brownout"

    def arm(self, sim, injectors, agent=None) -> None:
        for injector in injectors:
            previous = injector.drop_probability
            sim.schedule(self.at_s, self._fire, sim, "fault.brownout",
                         {"drop_probability": self.drop_probability},
                         injector.set_drop_probability,
                         self.drop_probability)
            sim.schedule(self.at_s + self.duration_s, self._fire, sim,
                         "fault.restored",
                         {"drop_probability": previous},
                         injector.set_drop_probability, previous)

    def describe(self) -> Dict:
        return {
            **super().describe(),
            "duration_s": self.duration_s,
            "drop_probability": self.drop_probability,
        }


@dataclass(frozen=True)
class LenderCrash(FaultCampaign):
    """Whole-node death: links go dark and the agent stops granting."""

    name = "lender-crash"

    def arm(self, sim, injectors, agent=None) -> None:
        for injector in injectors:
            sim.schedule(self.at_s, self._fire, sim, "fault.link_down",
                         {}, injector.set_down, True)
        if agent is not None:
            def crash():
                agent.crashed = True
            sim.schedule(self.at_s, self._fire, sim, "fault.lender_crash",
                         {"host": agent.hostname}, crash)


CAMPAIGNS: Dict[str, Type[FaultCampaign]] = {
    cls.name: cls for cls in (LinkKill, LinkFlap, Brownout, LenderCrash)
}


def make_campaign(name: str, **params) -> FaultCampaign:
    """Build a campaign from its catalogue name and parameters.

    Parameters are validated against :data:`CAMPAIGN_PARAMS` first, so
    a typo'd name or out-of-range value fails with a typed error
    before any dataclass construction.
    """
    validated = validate_campaign_params(name, params)
    return CAMPAIGNS[name](**validated)


def make_rest_fault_hook(testbed, seed: int = 0):
    """Fault hook for ``POST /v1/faults`` on :class:`RestApi`.

    Resolves the target attachment, arms the named campaign against the
    *lender's* fault domain (its serial links), and returns the
    campaign description for the HTTP response.

    RNG-stream hygiene: each POST derives a fresh per-campaign stream
    from ``(seed, attachment_id, call index)`` — the injectors on the
    target links are reseeded with it, so two identical POSTs never
    silently replay the same Bernoulli draws, while the whole sequence
    of calls stays deterministic for a given hook seed. The derived
    stream label is echoed in the response as ``rng_stream``.
    """
    root = SeededRNG(seed).derive("rest-faults")
    calls = itertools.count()

    def hook(name: str, attachment_id: int, params: Dict) -> Dict:
        attachment = testbed.plane.attachment(
            attachment_id, token=testbed.admin_token
        )
        campaign = make_campaign(name, **params)
        index = next(calls)
        stream = root.derive(f"{attachment_id}/{index}")
        links = testbed.links_of(attachment.memory_host)
        injectors = []
        for link in links:
            injector = ensure_injector(link)
            injector.reseed(stream.derive(link.name))
            injectors.append(injector)
        agent = testbed.node(attachment.memory_host).agent
        campaign.arm(testbed.sim, injectors, agent=agent)
        return {
            **campaign.describe(),
            "attachment": attachment_id,
            "target_host": attachment.memory_host,
            "links": [link.name for link in links],
            "rng_stream": stream.label,
            "call_index": index,
        }

    return hook
