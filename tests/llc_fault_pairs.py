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
"""

import pytest

from test_llc_fault_schedules import KINDS, channels, run_schedule, single_faults


@pytest.mark.parametrize("bonded", [False, True], ids=["unbonded", "bonded"])
def test_every_ordered_fault_pair_leaves_the_llc_whole(bonded):
    pairs = 0
    failures = []
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
                    pairs += 1
                    _, broken = run_schedule(bonded, plans)
                    if broken:
                        failures.append((plans, broken))
    assert pairs
    assert not failures, f"{len(failures)} of {pairs} pairs: {failures}"
