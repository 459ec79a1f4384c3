"""The golden manifest: every deterministic artifact, pinned by sha256.

The simulator is deterministic, so an artifact's bytes prove that a
change moved nothing. ``golden/manifest.json`` maps each producer below
to the outputs it makes and the sha256 of each; one parametrised test,
``test_golden[<producer>/<output>]``, regenerates every output in
process, exactly as the CLI or the claims run writes it. Running this
module at two commits therefore shows whether they are byte-identical.

Some outputs hash a metrics snapshot: the datapath and ordering
scenarios and the chaos artifacts. Their canonical snapshot JSON is committed beside the
manifest, as ``golden/<producer>/<output>.json``. When such a digest
moves, the failure lists the snapshot keys that were added, removed or
changed; when it holds, the committed snapshot must still match.

There is no update mode. A moved digest is a hand edit to the manifest
(and its snapshot file), justified in the change that moves it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import pytest

from repro.__main__ import main
from repro.cluster import (
    ClusterConfig,
    run_cluster,
    run_fig1_experiment,
    scaled_trace_config,
    write_artifacts,
)
from repro.mem import CACHELINE_BYTES, MIB
from repro.net.faults import FaultInjector
from repro.obs import MetricsRegistry
from repro.opencapi.transactions import reset_txn_ids
from repro.osmodel import PagePolicy
from repro.resilience import run_scenario
from repro.sim.rng import SeededRNG
from repro.testbed import RemoteBuffer, Testbed
from test_cluster_replay import BUSY

GOLDEN_DIR = Path(__file__).parent / "golden"
MANIFEST: Dict[str, Dict[str, str]] = json.loads(
    (GOLDEN_DIR / "manifest.json").read_text()
)


@dataclass(frozen=True)
class Artifact:
    """The bytes a producer hashes, and the metrics they came from."""

    data: bytes
    snapshot: Optional[Dict[str, Any]] = None


def canonical(snapshot: Dict[str, Any]) -> str:
    """The committed form of a snapshot file."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


# -- datapath ------------------------------------------------------------------
#
# Each scenario hashes the final ``sim.now``, the testbed's full metrics
# snapshot and the bytes read back. The kernel's event count is left
# out on purpose, so a change that only removes zero-delay relay hops
# keeps every digest, while any change to a timestamp, a counter or a
# byte breaks one.


def _datapath_artifact(testbed, back: bytes) -> Artifact:
    registry = MetricsRegistry()
    testbed.register_observability(registry)
    snapshot = registry.snapshot()
    data = (
        json.dumps(testbed.sim.now).encode()
        + json.dumps(snapshot, sort_keys=True).encode()
        + back
    )
    return Artifact(data, snapshot)


def _copy(seed, nbytes, bonded=False, drop_probability=0.0) -> Artifact:
    reset_txn_ids()
    rng = SeededRNG(seed)
    injectors = None
    if drop_probability:
        injectors = {
            channel: FaultInjector(
                rng=rng.derive(f"drops/ch{channel}"),
                drop_probability=drop_probability,
            )
            for channel in (0, 1)
        }
    testbed = Testbed(fault_injectors=injectors)
    attachment = testbed.attach(
        "node0", 4 * MIB, memory_host="node1", bonded=bonded
    )
    buffer = RemoteBuffer.allocate(
        testbed.node0, nbytes, policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
    )
    data = rng.derive("data").bytes(nbytes)
    buffer.write(0, data)
    back = buffer.read(0, nbytes)
    testbed.run()
    assert back == data
    if bonded:
        assert min(testbed.node0.device.routing.per_channel_tx) > 0
    return _datapath_artifact(testbed, back)


def _pingpong(seed, pairs) -> Artifact:
    reset_txn_ids()
    rng = SeededRNG(seed)
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    lines = rng.derive("lines").sample_indices(
        4 * MIB // CACHELINE_BYTES, pairs
    )
    data = rng.derive("data").bytes(pairs * CACHELINE_BYTES)
    node = testbed.node0
    back = bytearray()
    for index, line in enumerate(lines):
        address = window.start + int(line) * CACHELINE_BYTES
        payload = data[index * CACHELINE_BYTES:(index + 1) * CACHELINE_BYTES]
        node.run_store(address, payload)
        back += node.run_load(address, CACHELINE_BYTES)
    testbed.run()
    assert bytes(back) == data
    return _datapath_artifact(testbed, bytes(back))


#: Seed 10 of the lossy copy exercises replay requests and timeout
#: recovery on both nodes.
DATAPATH: Dict[str, Callable[[], Artifact]] = {
    "copy": lambda: _copy(11, 256 * 1024),
    "lossy_copy": lambda: _copy(
        10, 256 * 1024, bonded=True, drop_probability=2e-3
    ),
    "pingpong": lambda: _pingpong(11, 256),
}


# -- same-instant ordering -------------------------------------------------------
#
# Contended single-line traffic under seeded drops and corruption, in
# both directions of every channel. Besides the datapath artifact, each
# scenario hashes every link's send sequence: (send time, frame id,
# (txn id, burst) of every packed transaction). Events that share an
# instant are dispatched in insertion order, so a change that reorders
# them moves a frame's contents or its send time here even where the
# final counters happen to agree.

#: Cachelines stored and loaded back per scenario, split evenly over
#: the concurrent workers.
ORDERING_LINES = 1024


def _record_sends(testbed) -> Dict[str, list]:
    """Wrap every link's ``send``; returns the per-link send logs."""
    logs: Dict[str, list] = {}
    for channel in testbed.channels:
        for link in (channel.a_to_b, channel.b_to_a):
            log = logs[link.name] = []

            def send(frame, size_bytes, pre_corrupted=False,
                     _send=link.send, _log=log, _sim=testbed.sim):
                _log.append((
                    _sim.now,
                    frame.frame_id,
                    [(txn.txn_id, txn.burst) for txn in frame.transactions],
                ))
                return _send(frame, size_bytes, pre_corrupted)

            link.send = send
    return logs


def _ordering(bonded: bool, workers: int, seed: int = 3) -> Artifact:
    reset_txn_ids()
    rng = SeededRNG(seed)
    testbed = Testbed()
    for index, channel in enumerate(testbed.channels):
        for direction, link in (("ab", channel.a_to_b),
                                ("ba", channel.b_to_a)):
            link.faults = FaultInjector(
                rng=rng.derive(f"faults/ch{index}/{direction}"),
                drop_probability=2e-3,
                corrupt_probability=2e-3,
            )
    logs = _record_sends(testbed)
    attachment = testbed.attach(
        "node0", 4 * MIB, memory_host="node1", bonded=bonded
    )
    start = testbed.remote_window_range(attachment).start
    lines = [
        int(line) for line in rng.derive("lines").sample_indices(
            4 * MIB // CACHELINE_BYTES, ORDERING_LINES
        )
    ]
    data = rng.derive("data").bytes(ORDERING_LINES * CACHELINE_BYTES)
    node = testbed.node0
    back = [b""] * ORDERING_LINES

    def worker(slots):
        for slot in slots:
            address = start + lines[slot] * CACHELINE_BYTES
            yield node.store(
                address,
                data[slot * CACHELINE_BYTES:(slot + 1) * CACHELINE_BYTES],
            )
            back[slot] = yield node.load(address, CACHELINE_BYTES)

    for first in range(workers):
        testbed.sim.process(worker(range(first, ORDERING_LINES, workers)))
    testbed.run()
    read = b"".join(bytes(chunk) for chunk in back)
    assert read == data
    artifact = _datapath_artifact(testbed, read)
    sends = json.dumps(logs, sort_keys=True).encode()
    return Artifact(artifact.data + sends, artifact.snapshot)


ORDERING: Dict[str, Callable[[], Artifact]] = {
    f"{wiring}-w{workers}": functools.partial(
        _ordering, wiring == "bonded", workers
    )
    for wiring in ("unbonded", "bonded")
    for workers in (1, 16, 128)
}


# -- chaos, cluster and CLI artifacts -----------------------------------------


def _chaos(name: str) -> Artifact:
    """``python -m repro chaos <name> --seed 7``'s result JSON."""
    result = run_scenario(name, seed=7)
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    return Artifact(text.encode(), result["metrics"])


def _run_main(*argv: str) -> str:
    """Run ``python -m repro <argv>`` in process; return its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(list(argv)) == 0
    return stdout.getvalue()


def _files(directory: str) -> Dict[str, bytes]:
    return {
        name: Path(directory, name).read_bytes()
        for name in os.listdir(directory)
    }


@functools.lru_cache(maxsize=None)
def _cluster_cli() -> Dict[str, bytes]:
    """The 4-rack chaos replay's artifacts, as the CLI writes them."""
    with tempfile.TemporaryDirectory() as out:
        _run_main(
            "cluster", "--racks", "4", "--machines", "32",
            "--tasks", "1200", "--chaos", "--out", out,
        )
        return _files(out)


@functools.lru_cache(maxsize=None)
def _busy_replays() -> Dict[str, bytes]:
    """The BUSY replay's artifacts by ``<scenario>/<file>``: ``plain``
    and ``chaos`` (a mid-run lender crash)."""
    files = {}
    for scenario in ("plain", "chaos"):
        artifact, _ = run_cluster(
            ClusterConfig(chaos=scenario == "chaos", **BUSY)
        )
        with tempfile.TemporaryDirectory() as out:
            write_artifacts(artifact, out)
            for name, data in _files(out).items():
                files[f"{scenario}/{name}"] = data
    return files


@functools.lru_cache(maxsize=None)
def _telemetry_cli() -> Dict[str, bytes]:
    """The files ``repro trace stream``, ``repro metrics stream`` and
    ``repro trace chaos`` write. Each command rewinds transaction ids
    itself, so the files do not depend on which tests ran first."""
    files = {}
    for argv in (
        ("trace", "stream", "--bytes", "65536"),
        ("metrics", "stream", "--bytes", "65536"),
        ("trace", "chaos", "--scenario", "link-kill-failover",
         "--seed", "7"),
    ):
        with tempfile.TemporaryDirectory() as out:
            _run_main(*argv, "--out", out)
            files.update(_files(out))
    return files


@functools.lru_cache(maxsize=None)
def _fig1_reports(units: int):
    return run_fig1_experiment(scaled_trace_config(units=units), units=units)


#: What a ``fig1/<kind>-<units>`` entry hashes of each model's report.
FIG1_KINDS: Dict[str, Callable[[Any], Any]] = {
    "utilization": lambda report: [
        report.cpu_fragmentation_pct,
        report.memory_fragmentation_pct,
        report.compute_off_pct,
        report.memory_off_pct,
    ],
    "reports": asdict,
}


def _fig1(output: str) -> bytes:
    """Best-fit placement in both Fig. 1 models at ``<kind>-<units>``."""
    kind, units = output.rsplit("-", 1)
    reports = _fig1_reports(int(units))
    values = {
        name: FIG1_KINDS[kind](report) for name, report in reports.items()
    }
    return json.dumps(values, sort_keys=True).encode()


def _repro_stdout(command: str, results) -> str:
    """``python -m repro <command>``'s stdout. A figure slice the claims
    run also calls, with the same arguments, is computed once."""
    with results.sharing_slices():
        return _run_main(*command.split())


#: Producer -> (output, session results) -> the output's artifact.
PRODUCERS: Dict[str, Callable[[str, Any], Artifact]] = {
    "datapath": lambda output, results: DATAPATH[output](),
    "ordering": lambda output, results: ORDERING[output](),
    "chaos": lambda output, results: _chaos(output),
    "cluster_cli": lambda output, results: Artifact(_cluster_cli()[output]),
    "busy_replay": lambda output, results: Artifact(_busy_replays()[output]),
    "telemetry_cli": lambda output, results: Artifact(
        _telemetry_cli()[output]
    ),
    "fig1": lambda output, results: Artifact(_fig1(output)),
    "repro_stdout": lambda output, results: Artifact(
        _repro_stdout(output, results).encode()
    ),
    "results": lambda output, results: Artifact(
        results.text(output[:-len(".json")]).encode()
    ),
}


# -- the test --------------------------------------------------------------------


def snapshot_diff(pinned: Dict[str, Any], fresh: Dict[str, Any]) -> str:
    """Key-level diff of two metrics snapshots, pinned -> fresh."""
    added = sorted(fresh.keys() - pinned.keys())
    removed = sorted(pinned.keys() - fresh.keys())
    changed = sorted(
        key for key in fresh.keys() & pinned.keys()
        if fresh[key] != pinned[key]
    )
    if not (added or removed or changed):
        return "snapshot unchanged: the rest of the hashed bytes moved"
    lines = [
        f"snapshot: {len(changed)} of {len(pinned)} keys changed, "
        f"{len(added)} added, {len(removed)} removed"
    ]
    lines += [f"  ~ {key}: {pinned[key]!r} -> {fresh[key]!r}"
              for key in changed]
    lines += [f"  + {key}: {fresh[key]!r}" for key in added]
    lines += [f"  - {key}: {pinned[key]!r}" for key in removed]
    return "\n".join(lines)


ENTRIES = [
    (producer, output)
    for producer, outputs in sorted(MANIFEST.items())
    for output in sorted(outputs)
]


def test_every_producer_is_pinned():
    assert set(MANIFEST) == set(PRODUCERS)


@pytest.mark.parametrize(
    ("producer", "output"), ENTRIES, ids=[f"{p}/{o}" for p, o in ENTRIES]
)
def test_golden(producer, output, results):
    artifact = PRODUCERS[producer](output, results)
    digest = hashlib.sha256(artifact.data).hexdigest()
    pinned = MANIFEST[producer][output]
    message = f"{producer}/{output}: sha256 {digest}, manifest {pinned}"
    if artifact.snapshot is None:
        assert digest == pinned, message
        return
    path = GOLDEN_DIR / producer / f"{output}.json"
    committed = path.read_text()
    fresh = canonical(artifact.snapshot)
    diff = snapshot_diff(json.loads(committed), json.loads(fresh))
    assert digest == pinned, f"{message}\n{diff}"
    assert fresh == committed, (
        f"{producer}/{output}: the digest holds but {path.name} "
        f"drifted from it\n{diff}"
    )
