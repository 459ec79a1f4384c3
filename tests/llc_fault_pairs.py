"""Every ordered pair of faults in a small copy, checked exhaustively.

The pairwise extension of ``test_llc_fault_schedules.py``, run by the
chaos-smoke CI job rather than tier-1 (about 20 s):

    PYTHONPATH=src python -m pytest tests/llc_fault_pairs.py

For each single fault, the copy is run with that fault first. The
second fault is then enumerated over *that* run's traversal count on
each channel, so it can land on the replays the first one caused; on
the first fault's own channel it comes after the first. Every schedule
must land both faults and leave the LLCs whole: the bytes read back
are the bytes written, full credits, nothing retained.

Every schedule's outcome is also folded into one sha256 per wiring:
the final ``sim.now`` and every LLC's counters, in schedule order.
``PAIR_DIGESTS`` pins those digests, so a change to the datapath that
moves one timestamp or one counter in any of the 1,092 schedules fails
here, not only one that breaks the protocol.
"""

import hashlib
import json

import pytest

from test_llc_fault_schedules import KINDS, channels, run_schedule, single_faults

#: sha256 over every schedule's ``sim.now`` and LLC counters, per wiring.
PAIR_DIGESTS = {
    "unbonded": "e530f931610fc484222ba596ecc99a8359bc7949636a44a7b5b52bd76471b77a",
    "bonded": "e6f5a3235971f776410491c43e128c512701374942d274e9d219a41bd0001bc1",
}

#: The LLC counters each schedule contributes to the digest.
LLC_COUNTERS = (
    "frames_built",
    "control_frames",
    "replays_requested",
    "replays_served",
    "frames_out_of_order",
    "frames_corrupted",
    "frames_duplicate",
    "nops_padded",
    "txns_sent",
    "txns_received",
    "timeout_recoveries",
    "credit_stalls",
    "credits_available",
    "retention_depth",
)


def outcome(testbed):
    """``sim.now`` and every LLC's counters after a drained schedule."""
    return [
        testbed.sim.now,
        [
            [getattr(llc, counter) for counter in LLC_COUNTERS]
            for node in (testbed.node0, testbed.node1)
            for llc in node.device.llcs
        ],
    ]


def every_pair(bonded):
    """``(plans, broken, outcome)`` for every ordered fault pair."""
    for first_channel, first_index, first_kind in single_faults(bonded):
        faulted, _ = run_schedule(
            bonded, {first_channel: {first_index: first_kind}}
        )
        for channel in channels(bonded):
            start = first_index + 1 if channel == first_channel else 0
            for index in range(start, faulted[channel].frames_seen):
                for kind in KINDS:
                    plans = {first_channel: {first_index: first_kind}}
                    plans.setdefault(channel, {})[index] = kind
                    seen = []
                    _, broken = run_schedule(
                        bonded, plans,
                        observe=lambda testbed: seen.append(outcome(testbed)),
                    )
                    yield plans, broken, seen[0]


@pytest.mark.parametrize("bonded", [False, True], ids=["unbonded", "bonded"])
def test_every_ordered_fault_pair_leaves_the_llc_whole(bonded):
    pairs = 0
    failures = []
    digest = hashlib.sha256()
    for plans, broken, result in every_pair(bonded):
        pairs += 1
        digest.update(json.dumps(result).encode())
        if broken:
            failures.append((plans, broken))
    assert pairs
    assert not failures, f"{len(failures)} of {pairs} pairs: {failures}"
    wiring = "bonded" if bonded else "unbonded"
    assert digest.hexdigest() == PAIR_DIGESTS[wiring], (
        f"{wiring}: {pairs} schedules folded to {digest.hexdigest()}"
    )
