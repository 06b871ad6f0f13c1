"""Tests for the simulation subsystem: engine, backends, warm state.

Covers the backend-equivalence acceptance criteria (sharded goodput
matches the reference within slotting tolerance on acyclic schemes,
same seed), snapshot/restore determinism
(``step(a); step(b)`` ≡ ``step(a + b)``), the failure schedule, worker
sharding, and the ``auto`` fallback on cyclic schemes.  Golden-state
digests pin the ``reference`` backend's exact RNG stream, so its hot loop
can be optimized without changing a single draw, and a frozen copy of an
earlier version of that loop checks its full state after every step.
"""

import copy
import hashlib
import random
from itertools import repeat

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import (
    BroadcastScheme,
    Instance,
    PacketSimEngine,
    acyclic_guarded_scheme,
    available_backends,
    cyclic_open_scheme,
    figure1_instance,
    random_instance,
    simulate_packet_broadcast,
)
from repro.analysis import clip_to_capacities
from repro.core.exceptions import DecompositionError
from repro.core.throughput import maxflow_throughput
from repro.flows.arborescence import level_in_rates
from repro.flows.dinic import maxflow
from repro.simulation.backends import BURST_CAP
from repro.simulation.backends.reference import ReferenceBackend
from repro.simulation.backends.sharded import ShardFleet
from repro.simulation.core import SimConfig

from .conftest import instances, open_instances

BACKENDS = ("reference", "sharded")


def _fig1():
    inst = figure1_instance()
    return inst, acyclic_guarded_scheme(inst, 4.0).scheme, 4.0


def _chain():
    inst = Instance.open_only(1.0, (1.0, 1.0, 0.0))
    scheme = BroadcastScheme.from_edges(
        4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    )
    return inst, scheme, 1.0


def _random_acyclic(size=40, seed=11):
    import numpy as np

    inst = random_instance(np.random.default_rng(seed), size, 0.5, "Unif100")
    sol = acyclic_guarded_scheme(inst)
    return inst, sol.scheme, sol.throughput * (1 - 1e-9)


ACYCLIC_FIXTURES = {
    "figure1": _fig1,
    "chain": _chain,
    "random40": _random_acyclic,
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("fixture", sorted(ACYCLIC_FIXTURES))
    @pytest.mark.parametrize("backend", ("sharded", "auto"))
    def test_per_node_goodput_matches_reference(self, fixture, backend):
        """Per-node goodput within 15% of the reference on three
        fixtures; for ``auto`` this is the gate of making it the
        runtime's default transport."""
        inst, scheme, rate = ACYCLIC_FIXTURES[fixture]()
        kwargs = dict(slots=400, seed=0, packets_per_unit=2.0 / max(rate, 1))
        ref = simulate_packet_broadcast(inst, scheme, rate, **kwargs)
        new = simulate_packet_broadcast(
            inst, scheme, rate, backend=backend, **kwargs
        )
        for v in range(1, scheme.num_nodes):
            assert new.goodput[v] == pytest.approx(
                ref.goodput[v], rel=0.15, abs=0.15 * rate
            ), f"node {v} diverges on {fixture}/{backend}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_deliver_the_planned_rate(self, backend):
        inst, scheme, rate = _fig1()
        res = simulate_packet_broadcast(
            inst, scheme, rate, slots=400, seed=0,
            packets_per_unit=2.0, backend=backend,
        )
        assert res.efficiency() > 0.85

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deterministic_given_seed(self, backend):
        inst, scheme, rate = _fig1()
        a = simulate_packet_broadcast(
            inst, scheme, rate, slots=120, seed=3, backend=backend
        )
        b = simulate_packet_broadcast(
            inst, scheme, rate, slots=120, seed=3, backend=backend
        )
        assert a.received == b.received
        assert a.goodput == b.goodput

    def test_reference_handles_cyclic_schemes(self):
        inst = Instance.open_only(5.0, (5.0, 4.0, 4.0, 4.0, 3.0))
        scheme = cyclic_open_scheme(inst, 5.0)
        res = simulate_packet_broadcast(
            inst, scheme, 5.0, slots=400, seed=0,
            packets_per_unit=2.0, backend="reference",
        )
        assert res.efficiency() > 0.85

    def test_sharded_rejects_cyclic_schemes(self):
        inst = Instance.open_only(5.0, (5.0, 4.0, 4.0, 4.0, 3.0))
        scheme = cyclic_open_scheme(inst, 5.0)
        with pytest.raises(DecompositionError):
            PacketSimEngine(inst, scheme, 5.0, backend="sharded")

    def test_auto_falls_back_to_reference_on_cyclic(self):
        inst = Instance.open_only(5.0, (5.0, 4.0, 4.0, 4.0, 3.0))
        scheme = cyclic_open_scheme(inst, 5.0)
        sim = PacketSimEngine(inst, scheme, 5.0, backend="auto")
        assert sim.backend_name == "reference"

    def test_auto_fallback_drops_the_worker_request(self):
        """auto + workers must not crash when the fallback is serial."""
        inst = Instance.open_only(5.0, (5.0, 4.0, 4.0, 4.0, 3.0))
        scheme = cyclic_open_scheme(inst, 5.0)
        sim = PacketSimEngine(inst, scheme, 5.0, backend="auto", workers=4)
        assert sim.backend_name == "reference"
        assert sim.step(50).delivered()[1] > 0

    def test_auto_picks_sharded_on_acyclic(self):
        inst, scheme, rate = _fig1()
        sim = PacketSimEngine(inst, scheme, rate, backend="auto")
        assert sim.backend_name == "sharded"

    def test_unknown_backend_rejected(self):
        inst, scheme, rate = _fig1()
        with pytest.raises(ValueError, match="unknown simulation backend"):
            PacketSimEngine(inst, scheme, rate, backend="quantum")

    def test_available_backends_lists_auto(self):
        assert available_backends() == [*BACKENDS, "auto"]


def _live_maxflows(scheme, dead):
    """Every receiver's max-flow rate from the source once the ``dead``
    nodes' edges are gone (index 0, the source, is 0)."""
    edges = [
        (i, j, c) for i, j, c in scheme.edges()
        if i not in dead and j not in dead
    ]
    return [0.0] + [
        maxflow(scheme.num_nodes, edges, 0, v)
        for v in range(1, scheme.num_nodes)
    ]


@st.composite
def _yardstick_runs(draw, backends=BACKENDS):
    """``(backend, instance, scheme, rate, packets_per_unit, failures,
    slots)``: a packed (acyclic, equal-in-rate) overlay, or one
    truth-clipped to random capacities and leveled as the runtime's
    online transport does (its uneven rescaling splits into more trees),
    on any of ``backends``; or a Theorem 5.2 or random (mostly cyclic)
    overlay on ``reference``.  The source may inject above the max-flow
    rate, and up to two receivers depart at slot 0 or mid-run."""
    kinds = ("packed", "packed", "leveled", "cyclic", "random")
    if "reference" not in backends:
        kinds = ("packed", "leveled")
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        num = draw(st.integers(3, 10))
        edges = {}
        for v in range(1, num):
            u = draw(st.sampled_from([w for w in range(num) if w != v]))
            edges[u, v] = draw(st.floats(0.1, 2.0))
        extra = st.tuples(st.integers(0, num - 1), st.integers(1, num - 1))
        for u, v in draw(st.lists(extra, max_size=2 * num)):
            if u != v:
                edges[u, v] = draw(st.floats(0.1, 2.0))
        scheme = BroadcastScheme.from_edges(
            num, [(u, v, c) for (u, v), c in sorted(edges.items())]
        )
        inst = Instance.open_only(10.0, [10.0] * (num - 1))
        backend, rate = "reference", draw(st.floats(0.3, 2.5))
        ppu = draw(st.sampled_from((0.5, 1.0, 2.0, 3.7)))
    else:
        if kind == "packed":
            inst = draw(instances(
                max_open=6, max_guarded=6, min_receivers=1, positive=True
            ))
            sol = acyclic_guarded_scheme(inst)
            scheme, rate = sol.scheme, sol.throughput
            backend = draw(st.sampled_from(backends))
        elif kind == "leveled":
            # A heterogeneous swarm, as the runtime's are: its packed
            # overlay feeds receivers from several relays.
            inst = random_instance(
                np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                draw(st.integers(4, 10)), 0.5, "Unif100",
            )
            packed = acyclic_guarded_scheme(inst).scheme
            clipped = clip_to_capacities(packed, [
                packed.out_rate(i) * draw(st.floats(0.05, 1.5))
                for i in range(packed.num_nodes)
            ])
            src, dst, clip_rate = clipped.edge_arrays()
            leveled, rate = level_in_rates(clipped.num_nodes, dst, clip_rate)
            scheme = BroadcastScheme.from_edges(
                clipped.num_nodes,
                list(zip(src.tolist(), dst.tolist(), leveled.tolist())),
            )
            backend = draw(st.sampled_from(backends))
        else:
            inst = draw(open_instances(max_open=8))
            scheme = cyclic_open_scheme(inst)
            rate, backend = maxflow_throughput(scheme), "reference"
        assume(0 < rate < float("inf"))
        rate *= draw(st.sampled_from((0.5, 1.0, 1.5)))
        ppu = draw(st.sampled_from((1.0, 2.0, 4.0))) / rate
    slots = draw(st.integers(20, 120))
    victims = draw(st.lists(
        st.integers(1, scheme.num_nodes - 1), max_size=2, unique=True
    ))
    failures = {v: draw(st.sampled_from((0, slots // 2))) for v in victims}
    return backend, inst, scheme, rate, ppu, failures, slots


class TestMaxFlowYardstick:
    """No transport delivers more than the overlay's max-flow allows.

    Over any source/receiver cut an edge moves at most the credit it
    gained, ``rate * packets_per_unit`` per slot, and every distinct
    packet a receiver holds crossed its min cut, so a receiver's
    delivered count is bounded by its max-flow rate (in the overlay
    without the nodes dead from slot 0) × slots × ``packets_per_unit``;
    the burst buffer is slack on top.  A protocol-free yardstick: it
    holds for the random useful-packet loop and the tree pipelines alike.
    """

    @staticmethod
    def _within_max_flow(run, workers=None):
        backend, inst, scheme, rate, ppu, failures, slots = run
        sim = PacketSimEngine(
            inst, scheme, rate, packets_per_unit=ppu, seed=0,
            failures=failures, backend=backend, workers=workers,
        )
        assert sim.backend_name == backend
        delivered = sim.step(slots).delivered()
        dead = {v for v, when in failures.items() if when == 0}
        flows = _live_maxflows(scheme, dead)
        for v in range(1, scheme.num_nodes):
            bound = flows[v] * slots * ppu * (1 + 1e-9) + BURST_CAP
            assert delivered[v] <= bound, (
                f"node {v} got {delivered[v]} > max-flow bound {bound:g} "
                f"on {backend}"
            )

    @settings(max_examples=max(80, settings.default.max_examples))
    @given(_yardstick_runs())
    def test_no_receiver_beats_its_max_flow(self, run):
        self._within_max_flow(run)

    @settings(max_examples=max(80, settings.default.max_examples))
    @given(_yardstick_runs(backends=("sharded",)), st.integers(2, 3))
    def test_sharded_receivers_never_beat_their_max_flow(self, run, workers):
        """Every example on the tree pipelines, sharded across 2-3
        threads (one thread is the test above's ``sharded`` draws)."""
        self._within_max_flow(run, workers)


def _source_injected(sim):
    """Packets the source has injected so far, in the backend's own
    count: the reference's packet horizon, or the sharded substreams'
    source counters summed over every tree."""
    backend = sim._backend
    if sim.backend_name == "reference":
        return backend.horizon
    return sum(int(s.recv[:s.K].sum()) for s in backend.fleet.shards)


class TestTransportProperties:
    """Conservation under kills, on both transports.

    No creation: the source injects no more than ``rate`` asks, and no
    receiver ever holds more packets than it injected.  No duplication:
    cumulative arrivals equal the distinct packets held.  And the
    sharded transport's thread pool is invisible: the same run at 1, 2
    and 3 workers delivers the same counts.
    """

    @staticmethod
    def _conserved(run, workers=None):
        backend, inst, scheme, rate, ppu, failures, slots = run
        sim = PacketSimEngine(
            inst, scheme, rate, packets_per_unit=ppu, seed=0,
            failures=failures, backend=backend, workers=workers,
        )
        delivered = sim.step(slots).delivered()
        injected = _source_injected(sim)
        assert injected <= slots * rate * ppu * (1 + 1e-9)
        assert max(delivered) <= injected
        assert sim.received() == delivered
        return delivered

    @settings(max_examples=max(80, settings.default.max_examples))
    @given(_yardstick_runs())
    def test_no_creation_no_duplication(self, run):
        self._conserved(run)

    @settings(max_examples=max(80, settings.default.max_examples))
    @given(_yardstick_runs(backends=("sharded",)))
    def test_worker_count_never_changes_delivery(self, run):
        serial = self._conserved(run, workers=1)
        for workers in (2, 3):
            assert self._conserved(run, workers=workers) == serial


class TestEngineStepping:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step_is_additive(self, backend):
        inst, scheme, rate = _fig1()
        kwargs = dict(packets_per_unit=2.0, seed=7, backend=backend)
        split = PacketSimEngine(inst, scheme, rate, **kwargs)
        split.step(37)
        split.step(63)
        whole = PacketSimEngine(inst, scheme, rate, **kwargs)
        whole.step(100)
        assert split.received() == whole.received()
        assert split.delivered() == whole.delivered()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_restore_replays_identically(self, backend):
        inst, scheme, rate = _fig1()
        sim = PacketSimEngine(
            inst, scheme, rate, packets_per_unit=2.0, seed=5, backend=backend
        )
        sim.step(50)
        snap = sim.snapshot()
        first = sim.step(40).delivered()
        sim.restore(snap)
        second = sim.step(40).delivered()
        assert first == second

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_survives_divergent_futures(self, backend):
        """A snapshot can fork what-if continuations (failure injection)."""
        inst, scheme, rate = _fig1()
        sim = PacketSimEngine(
            inst, scheme, rate, packets_per_unit=2.0, seed=5, backend=backend
        )
        snap = sim.step(60).snapshot()
        healthy = sim.step(60).delivered()
        sim.restore(snap)
        sim.fail_node(1)
        failed = sim.step(60).delivered()
        assert failed != healthy  # the failure actually bit
        sim.restore(snap)
        assert sim.step(60).delivered() == healthy  # ... and unwinds

    def test_restore_rejects_foreign_backend_snapshots(self):
        inst, scheme, rate = _fig1()
        ref = PacketSimEngine(inst, scheme, rate, backend="reference")
        shd = PacketSimEngine(inst, scheme, rate, backend="sharded")
        with pytest.raises(ValueError, match="backend"):
            shd.restore(ref.snapshot())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restore_rejects_snapshots_of_other_overlays(self, backend):
        inst, scheme, rate = _fig1()
        other_inst, other_scheme, other_rate = _chain()
        snap = PacketSimEngine(
            other_inst, other_scheme, other_rate, backend=backend
        ).step(30).snapshot()
        sim = PacketSimEngine(inst, scheme, rate, backend=backend)
        with pytest.raises(ValueError, match="does not match"):
            sim.restore(snap)

    def test_negative_step_rejected(self):
        inst, scheme, rate = _fig1()
        sim = PacketSimEngine(inst, scheme, rate)
        with pytest.raises(ValueError):
            sim.step(-1)

    def test_wrapper_equals_manual_engine_composition(self):
        inst, scheme, rate = _fig1()
        res = simulate_packet_broadcast(
            inst, scheme, rate, slots=200, seed=9, packets_per_unit=2.0,
        )
        sim = PacketSimEngine(
            inst, scheme, rate, packets_per_unit=2.0, seed=9
        )
        sim.step(100).begin_window()
        manual = sim.step(100).result()
        assert manual.received == res.received
        assert manual.goodput == res.goodput
        assert manual.window == res.window


class TestFailureSchedule:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_upfront_failures_match_fail_node(self, backend):
        inst, scheme, rate = _fig1()
        kwargs = dict(packets_per_unit=2.0, seed=2, backend=backend)
        upfront = PacketSimEngine(
            inst, scheme, rate, failures={3: 50}, **kwargs
        )
        upfront.step(120)
        scheduled = PacketSimEngine(inst, scheme, rate, **kwargs)
        scheduled.fail_node(3, 50)
        scheduled.step(120)
        assert upfront.delivered() == scheduled.delivered()

    def test_failures_beyond_the_run_never_fire(self):
        inst, scheme, rate = _fig1()
        quiet = PacketSimEngine(
            inst, scheme, rate, seed=1, failures={3: 10_000}
        )
        clean = PacketSimEngine(inst, scheme, rate, seed=1)
        quiet.step(80)
        clean.step(80)
        assert quiet.delivered() == clean.delivered()

    def test_cannot_fail_source_or_past(self):
        inst, scheme, rate = _fig1()
        sim = PacketSimEngine(inst, scheme, rate)
        with pytest.raises(ValueError):
            sim.fail_node(0)
        sim.step(20)
        with pytest.raises(ValueError):
            sim.fail_node(1, 5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_starves_downstream(self, backend):
        inst, scheme, rate = _chain()
        sim = PacketSimEngine(
            inst, scheme, rate, seed=0, backend=backend, failures={1: 100}
        )
        sim.step(100).begin_window()
        goodput = sim.step(100).window_goodput()
        # Downstream of node 1 only its residual pipeline lag drains.
        assert goodput[3] < 0.1 * rate


def _state_digest(sim):
    """SHA-256 over a reference run's complete observable state: counters,
    held packets, credits, missing pools (stale entries included, in pool
    order) and the RNG state."""
    state = sim.snapshot().payload
    h = hashlib.sha256()
    for part in (
        sim.delivered(),
        sim.received(),
        [sorted(held) for held in state["have"]],
        state["credit"],
        [(sorted(items), pool) for items, pool in state["missing"]],
        state["rng"],
    ):
        h.update(repr(part).encode())
    return h.hexdigest()


def _golden_case(case):
    """A seeded random overlay (cyclic more often than not), a mid-run
    failure schedule and a ``packets_per_unit`` from the tested set."""
    rng = random.Random(f"golden:{case}")
    num = rng.randint(3, 12)
    edges = {}
    for v in range(1, num):  # every receiver gets at least one feeder
        u = rng.choice([w for w in range(num) if w != v])
        edges[u, v] = rng.uniform(0.1, 2.0)
    for _ in range(rng.randint(0, 2 * num)):
        u, v = rng.randrange(num), rng.randrange(1, num)
        if u != v:
            edges[u, v] = rng.uniform(0.1, 2.0)
    scheme = BroadcastScheme.from_edges(
        num, [(u, v, c) for (u, v), c in sorted(edges.items())]
    )
    inst = Instance.open_only(10.0, [10.0] * (num - 1))
    slots = rng.randint(60, 180)
    failures = {}
    for _ in range(rng.choice((0, 0, 1, 2))):
        failures[rng.randrange(1, num)] = rng.randint(5, slots - 5)
    kwargs = dict(
        packets_per_unit=rng.choice((0.5, 1.0, 2.0, 3.7)),
        seed=rng.randrange(1000),
        failures=failures,
    )
    split = rng.randint(1, slots - 1)
    return inst, scheme, rng.uniform(0.3, 2.5), kwargs, split, slots - split


#: SHA-256 state digests of the ``reference`` backend, recorded before its
#: hot loop was rewritten; the rewrite must reproduce every draw exactly.
GOLDEN_CASES = {
    0: "f4ae9bf7832e18133f22ec34c915b0f74faf07bcc7d681889ec829fb6db07fef",
    1: "bfe33b265eab3c3f0108adbd12b1d8a4362b3adc7e68b3406ddef1b763f35b8e",
    2: "1dc7dd7768d4999f634207faf81b5b13349004cb54364a0a37a4270736341c5a",
    3: "c119e612b0ed1dc15219afc1016f1801b7998e62a7796d44b369178708aa5d37",
    4: "f23b0074159979c8bbc2388cd43e9ac1983dfde420e512f52400ef55ecfe4a42",
    5: "8aca8911227508304e996cd4e9fde21532256ec535518e7ae462831118c6e22f",
    6: "895369e021c737f862e01c7fe722b46260c22a04a84df68987c8e1f824f2b324",
    7: "55de2ae5d32f03688d47a25598eeb97053cc6846a9151142a1b54b541e1c6605",
    8: "27dd6343bf8d8e7e78094e0a3ce719e0c5449444dcbf006567f866fa8528dee5",
    9: "aecfc21ae491b1af265a3ff83343744ab17970de15bb2c192463df50e1c5d461",
    10: "247c265fd96f092582aacfa05e818f775bb668ce2b4de6adc7aef1e232b441b2",
    11: "3c3b657428a0b70f3cf348635bf83770ca4cb1dca8d19690f6ae40a7b70de054",
    12: "7e384ebf8987b9572718ab93f6cd3ad560bd3d52b72d150a523c2b93125b038b",
    13: "c7996bd1569648b133c495314477151689a55b815f2c7f4fae36324b3a0abdf0",
    14: "2de2bbb587a6822bcdcdad1c1a7f86ae2f8b8354dbdc702277147cdb081faf1a",
    15: "97fcd069d8d2fd486a019eb9b36abc3f51e6fd258112f5ef12555faa5eb3044f",
    16: "fb8af7a893bb66a59cf41ddccd902f313389485b8ea3fb71a496290e255291d8",
    17: "849e0d403884d6be1346d762fb842341cc00e4ee2fe2b40e6c4c6a2bda4e58f3",
    18: "a48b30705c38d762655184cb08693c879234f14156f5fbdc7252b2044b8ec132",
    19: "6075630a951d29706167eba16ebb1adbaa8bca9c931a273f7d221d21e853b18f",
    20: "4f27937f1f61356b2e52490858332913296ea46e278d06540b087e1208373794",
    21: "ea37f45fbc94aa5d6f1d4c083ee8b01e972827a11109c16e8ca6bbba53b848bc",
    22: "53448d9d1eabfee4557c79de4b83fce7c82f485000bd413e90c0c32a43f9c767",
    23: "bd1a465a114f0bc68603acf06fe8d8713c8077e12bf1feb3d53b198abd7e2ad8",
    24: "97515a230d59e636cf62ce76ce56f35abf967df511b72c71c87ad86b88a06fbb",
    25: "2605574dbdaecbdb6c0779a72cb282bd54ac641a73e035d8b6e3c96c97707e9e",
    26: "53db1742cf7f2bbc806c47b978d7a3906253e3e0a3b64a20f678f47a987787ce",
    27: "8d66c168f5e9d7aacdf29db7e153ba25262de9b3f8cc800b11049b01f9af43bc",
    28: "f2819f4bf5e71c113d2f66d2bf3ef2ec21f20ad5c15444e558ffb28c16acc9ee",
    29: "b9fc16059aee8e0051c32362a0545c9b0eabaf1178b3c6a385922bfbe7b559fb",
    30: "fc2fc0de998a8883f8b987d14ea3b5a993d44837c34f965799a7e8059701f319",
    31: "88dc3973a2e40b8ace4702485220aaa72bff7567e647d3c57973d2da8cd8c4de",
    32: "b3df151f9af79d8c1c6360b54b55f4b866169b06cd7062a4f2f31e4bd92ace0c",
    33: "9f23adde06462d8567248a54cb8efac8117f354b25a5275bfba498b1f4676084",
    34: "d05f445978edb924bc6779e992da39cd329669f4ffbcbb099f5515e41c70d10d",
    35: "e7d771135c7cc42457c21317368a3a8ca7ce24cd5517b74033ffa4d4b285ed1b",
    36: "4101e61290b48f220167d4f72f222c7bdf14b9919e6d64a71959acdf03255e79",
    37: "cafccb45c670556dbdaed86c4b97e5b158de9982264bf0e44a20e3a9080a1852",
    38: "205accb4a0a0c244d3aab00b0c24a3312cea07dd624649c327c4d7e65e36ade6",
    39: "8e4ce29c2a8522ecabe13faf25746fb303132fc937a19633e523c75f6da371b6",
}
#: SHA-256 of each run's per-epoch (min_goodput, mean_goodput,
#: optimal_rate) tuples on the ``reference`` transport (the engine's
#: default when they were recorded).  The ``live-stream`` (online
#: estimation) entries were re-recorded when the transport began
#: leveling truth-clipped schemes.
GOLDEN_RUNTIME = {
    "steady-churn:1": "0da11626089f4ee05ea467a9a60dc033d8b4f40dcd965e73ef391b326f7a1daa",
    "steady-churn:2": "0f94028a36d2259ae44c482c8df5dad0ff99d4de2e072489887fc09bbce6d095",
    "steady-churn:3": "6fbc5fbe131a0b447dec7d8e621b46431fd48b92defb1adf54f250c83d5a76ce",
    "steady-churn:4": "59e1613b79538441391f064bec6f60593414a63b52e98cabff136119d5380e1f",
    "live-stream:1": "39aee4214f8873756f0ffa896511a521453f8a03cc0488f071f5c22dd4cc26d7",
    "live-stream:2": "990bd00f341a526ca464bbd3e14e3d38b22783c9c99af9f97cdd52987bfdc556",
    "live-stream:3": "04e34a075067bb1c210cc08fc9d070769502984934f4450598d6a99538c20bc9",
    "live-stream:4": "7763ab46bd4fd9634281970a23fa474d3d9200b3f7ce4799ba3422aec7e6a2ea",
}


#: The same runs on the engine's default transport (``auto``): sharded
#: trees wherever the scheme decomposes, which every steady-churn
#: (oracle) plan and every leveled live-stream scheme does.
GOLDEN_RUNTIME_DEFAULT = {
    "steady-churn:1": "60872964f00183bb9a185187b764b2dbf095d7dc95361567df7042b0b8348b72",
    "steady-churn:2": "c2ace60c80d77b6b84e7509651927ddd8675acee81c53bf64ea5528a2fc762f2",
    "steady-churn:3": "a294b5a06ee66ec50a32acb6c9a6983e413575f3f431949a54e213103eaed37e",
    "steady-churn:4": "de04274be315415903a2ea204d19c039d6af98b19bc12e8085de23cf05cb98dd",
    "live-stream:1": "50db5e76f7c7ed9b4d8ecb34d6bebdbbd9fc33939a3306cc270ccedabc919577",
    "live-stream:2": "e418b7739d8438ef7b191c112a07027e2f8396eeae82fbc17dc9ecf72c17bf1b",
    "live-stream:3": "bdc261d0bea50491626a9ddffbb2f052d4bf151f887a830568f3add5e8c01420",
    "live-stream:4": "07dc58e681deec19b816b063cdb55867a303eb1d4d5f720124218610aa67d642",
}


def _runtime_digest(name, **engine_kwargs):
    """SHA-256 of a ``GOLDEN_RUNTIME`` run's per-epoch
    ``(min_goodput, mean_goodput, optimal_rate)`` tuples."""
    from repro.runtime import RuntimeEngine, make_controller
    from repro.runtime.scenarios import LiveStreamTrace, SteadyChurn

    kind, seed = name.split(":")
    if kind == "steady-churn":
        spec, controller, extra = (
            SteadyChurn(size=25, horizon=160),
            "reactive",
            {},
        )
    else:
        spec, controller, extra = (
            LiveStreamTrace(size=20, horizon=120),
            "incremental",
            {"estimation": "online"},
        )
    run = spec.build(int(seed))
    engine = RuntimeEngine(
        run.platform, run.events, run.horizon, seed=int(seed),
        **extra, **engine_kwargs,
    )
    result = engine.run(make_controller(controller))
    epochs = [
        (ep.min_goodput, ep.mean_goodput, ep.optimal_rate)
        for ep in result.epochs
    ]
    return hashlib.sha256(repr(epochs).encode()).hexdigest()


class TestReferenceGoldenState:
    """The ``reference`` backend's exact RNG stream and state, pinned."""

    @pytest.mark.parametrize("case", range(40))
    def test_random_schemes_match_golden_state(self, case):
        inst, scheme, rate, kwargs, a, b = _golden_case(case)
        sim = PacketSimEngine(inst, scheme, rate, **kwargs)
        sim.step(a)
        sim.step(b)
        assert _state_digest(sim) == GOLDEN_CASES[case]

    def test_snapshot_replay_matches_golden_state(self):
        inst, scheme, rate, kwargs, a, b = _golden_case(7)
        sim = PacketSimEngine(inst, scheme, rate, **kwargs)
        snap = sim.step(a).snapshot()
        stepped = _state_digest(sim.step(b))
        sim.restore(snap)
        replayed = _state_digest(sim.step(b))
        fresh = PacketSimEngine(inst, scheme, rate, **kwargs).restore(snap)
        assert stepped == replayed == _state_digest(fresh.step(b))
        assert stepped == GOLDEN_CASES[7]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNTIME))
    def test_runtime_epochs_match_golden(self, name):
        digest = _runtime_digest(name, sim_backend="reference")
        assert digest == GOLDEN_RUNTIME[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNTIME_DEFAULT))
    def test_default_runtime_epochs_match_golden(self, name):
        assert _runtime_digest(name) == GOLDEN_RUNTIME_DEFAULT[name]


class _FrozenReference(ReferenceBackend):
    """Test oracle: the ``reference`` backend's ``run`` frozen as it was
    before the empty-useful shortcut and the inlined shuffle.  The live
    loop must leave ``state()`` equal to this one's after every step."""

    def run(self, start_slot, num_slots):
        rng = self.rng
        getrandbits = rng.getrandbits
        draw = rng._randbelow
        pkt_rate = self.config.pkt_rate
        burst_cap = BURST_CAP
        credit, have, missing = self.credit, self.have, self.missing
        arrivals, order, dead = self.arrivals, self.order, self.dead
        receivers = missing[1:]
        plan = [
            None
            if u in dead or v in dead
            else (v, cap, burst_cap + cap, missing[v], have[v],
                  None if u == 0 else have[u])
            for u, v, cap in self.edges
        ]

        for _ in range(num_slots):
            self.injected += pkt_rate
            new_horizon = int(self.injected)
            if new_horizon > self.horizon:
                fresh = range(self.horizon, new_horizon)
                for m in receivers:
                    m.items.update(fresh)
                    m.pool.extend(fresh)
                self.horizon = new_horizon
            rng.shuffle(order)
            for e in order:
                edge = plan[e]
                if edge is None:
                    continue
                v, cap, limit, m, got, holder = edge
                c = credit[e] + cap
                if c > limit:
                    c = limit
                if c < 1.0:
                    credit[e] = c
                    continue
                items = m.items
                sent = 0
                while items:
                    pool = m.pool
                    n = len(pool)
                    if n > 4 * len(items):
                        pool = m.pool = [p for p in pool if p in items]
                        n = len(pool)
                    pkt = None
                    k = n.bit_length()
                    for _ in repeat(None, 16):
                        r = getrandbits(k)
                        while r >= n:
                            r = getrandbits(k)
                        p = pool[r]
                        if p in items and (holder is None or p in holder):
                            pkt = p
                            break
                    if pkt is None:
                        useful = sorted(
                            items if holder is None else items & holder
                        )
                        if not useful:
                            break
                        pkt = useful[draw(len(useful))]
                    got.add(pkt)
                    items.remove(pkt)
                    sent += 1
                    c -= 1.0
                    if c < 1.0:
                        break
                arrivals[v] += sent
                credit[e] = c


def _slow_relay_config(num=5):
    """Source -> 1 slowly, 1 -> 2 fast: node 2 soon lacks only packets its
    relay lacks too, the case the empty-useful shortcut skips."""
    scheme = BroadcastScheme.from_edges(
        num,
        [(0, 1, 0.3), (1, 2, 2.5)] + [(0, v, 1.0) for v in range(3, num)],
    )
    return SimConfig(scheme=scheme, rate=1.0, packets_per_unit=2.0)


@st.composite
def _transport_runs(draw):
    """A random overlay (acyclic, cyclic or a slow relay feeding a fast
    child), its packet rate, a seed, and a sequence of steps, kills,
    snapshots and restores."""
    kind = draw(st.sampled_from(("acyclic", "cyclic", "slow-relay")))
    num = draw(st.integers(3, 9))
    caps = st.floats(0.1, 2.0)
    edges = {}
    if kind == "slow-relay":
        edges[0, 1] = draw(st.floats(0.1, 0.5))
        edges[1, 2] = draw(st.floats(1.5, 3.0))
    for v in range(1, num):
        if (0, v) in edges or (1, v) in edges:
            continue
        feeders = range(v) if kind == "acyclic" else [
            w for w in range(num) if w not in (v, 2)
        ]
        edges[draw(st.sampled_from(feeders)), v] = draw(caps)
    extra = st.tuples(st.integers(0, num - 1), st.integers(1, num - 1), caps)
    for u, v, c in draw(st.lists(extra, max_size=2 * num)):
        if kind == "acyclic" and u > v:
            u, v = v, u
        if u != v and not (kind == "slow-relay" and v in (1, 2)):
            edges[u, v] = c
    scheme = BroadcastScheme.from_edges(
        num, [(u, v, c) for (u, v), c in sorted(edges.items())]
    )
    config = SimConfig(
        scheme=scheme,
        rate=draw(st.floats(0.3, 2.5)),
        packets_per_unit=draw(st.sampled_from((0.5, 1.0, 2.0, 3.7))),
    )
    action = st.one_of(
        st.tuples(st.just("step"), st.integers(1, 40)),
        st.tuples(st.just("kill"), st.integers(1, num - 1)),
        st.just(("snap",)),
        st.just(("restore",)),
    )
    return (
        config,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(action, min_size=1, max_size=8)),
    )


class TestReferenceMatchesFrozenLoop:
    """The live ``reference`` loop against :class:`_FrozenReference`."""

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(_transport_runs())
    def test_state_matches_frozen_loop_after_every_step(self, case):
        config, seed, actions = case
        live = ReferenceBackend(config, seed)
        frozen = _FrozenReference(config, seed)
        snaps = None
        slot = 0
        for action in actions:
            if action[0] == "step":
                live.run(slot, action[1])
                frozen.run(slot, action[1])
                slot += action[1]
            elif action[0] == "kill":
                live.kill(action[1])
                frozen.kill(action[1])
            elif action[0] == "snap":
                snaps = copy.deepcopy((live.state(), frozen.state()))
            elif snaps is not None:
                live.load(copy.deepcopy(snaps[0]))
                frozen.load(copy.deepcopy(snaps[1]))
            assert live.state() == frozen.state()

    def test_slow_relay_reaches_the_empty_useful_case(self):
        """The shortcut's trigger, seen at slot boundaries."""
        live = ReferenceBackend(_slow_relay_config(), 4)
        frozen = _FrozenReference(_slow_relay_config(), 4)
        hits = 0
        for slot in range(120):
            live.run(slot, 1)
            frozen.run(slot, 1)
            items = live.missing[2].items
            hits += bool(items) and items.isdisjoint(live.have[1])
        assert hits > 30
        assert live.state() == frozen.state()



class TestDecompositionMemo:
    """The sharded backend keys its decomposition memo on the bytes of
    the scheme's edge arrays, so the same edges inserted in another
    order miss the memo; the greedy sorts each receiver's in-edges by
    sender, so both decompose to the same trees and deliver the same."""

    @pytest.mark.parametrize("fixture", ("figure1", "random40"))
    def test_insertion_order_never_changes_the_trees(self, fixture, monkeypatch):
        import numpy as np

        import repro.simulation.backends.sharded as sharded

        inst, scheme, rate = ACYCLIC_FIXTURES[fixture]()
        shuffled = BroadcastScheme.from_edges(
            scheme.num_nodes, list(scheme.edges())[::-1]
        )
        assert list(shuffled.edges()) != list(scheme.edges())
        assert sorted(shuffled.edges()) == sorted(scheme.edges())

        memo = sharded._decompose_cached
        trees = []

        def spy(*args):
            trees.append(memo(*args))
            return trees[-1]

        monkeypatch.setattr(sharded, "_DECOMPOSITION_MEMO", {})
        monkeypatch.setattr(sharded, "_decompose_cached", spy)
        delivered = []
        for overlay in (scheme, shuffled):
            sim = PacketSimEngine(
                inst, overlay, rate, backend="sharded", seed=0,
                packets_per_unit=2.0 / max(rate, 1),
            )
            sim.step(60)
            sim.fail_node(2)
            sim.step(60)
            delivered.append(sim.delivered())
        assert len(sharded._DECOMPOSITION_MEMO) == 2  # two keys, two misses
        (w_a, p_a), (w_b, p_b) = trees
        assert len(w_a) > 1
        assert w_a.tobytes() == w_b.tobytes()
        assert np.array_equal(p_a, p_b)
        assert delivered[0] == delivered[1]


class TestShardedWorkers:
    def test_worker_count_never_changes_results(self):
        inst, scheme, rate = _random_acyclic(size=30, seed=4)
        runs = [
            simulate_packet_broadcast(
                inst, scheme, rate, slots=150, seed=0,
                backend="sharded", workers=w,
            )
            for w in (None, 2, 4)
        ]
        assert runs[0].received == runs[1].received == runs[2].received
        assert runs[0].goodput == runs[1].goodput == runs[2].goodput

    def test_thread_pool_survives_stepping_and_failures(self):
        inst, scheme, rate = _random_acyclic(size=30, seed=4)
        kwargs = dict(packets_per_unit=2.0, seed=2)
        pooled = PacketSimEngine(
            inst, scheme, rate, backend="sharded", workers=2, **kwargs
        )
        serial = PacketSimEngine(inst, scheme, rate, backend="sharded", **kwargs)
        for sim in (pooled, serial):
            sim.step(40)
            sim.fail_node(3)
            sim.step(40)
        assert pooled.delivered() == serial.delivered()

    @pytest.mark.parametrize("keyword", ("rng", "worker_mode", "burst_cap"))
    @pytest.mark.parametrize("entry", ("engine", "simulate"))
    def test_deleted_transport_keywords_rejected(self, entry, keyword):
        """Backends build their own RNG from the seed, the shards run on
        one pool and every edge banks ``BURST_CAP`` credit, so neither
        entry point takes an ``rng``, a ``worker_mode`` or a
        ``burst_cap``."""
        inst, scheme, rate = _fig1()
        value = {
            "rng": random.Random(0), "worker_mode": "process", "burst_cap": 4.0,
        }[keyword]
        call = {
            "engine": PacketSimEngine,
            "simulate": simulate_packet_broadcast,
        }[entry]
        with pytest.raises(TypeError, match=keyword):
            call(inst, scheme, rate, backend="sharded", **{keyword: value})

    def test_wrapper_measures_the_second_half(self):
        """``simulate_packet_broadcast`` always warms up for half the
        run: no ``warmup_fraction``."""
        inst, scheme, rate = _fig1()
        with pytest.raises(TypeError, match="warmup_fraction"):
            simulate_packet_broadcast(inst, scheme, rate, warmup_fraction=0.3)
        assert simulate_packet_broadcast(
            inst, scheme, rate, slots=201
        ).window == (100, 201)

    def test_config_and_fleet_take_no_burst_cap(self):
        import numpy as np

        inst, scheme, rate = _fig1()
        with pytest.raises(TypeError, match="burst_cap"):
            SimConfig(scheme=scheme, rate=rate, burst_cap=4.0)
        with pytest.raises(TypeError, match="burst_cap"):
            ShardFleet(
                np.zeros(0), np.zeros((0, 3), dtype=np.int64), 3, 1.0, 1.0,
                burst_cap=4.0,
            )

    def test_restore_rejects_mismatched_shard_layouts(self):
        """A snapshot only restores into an identically-sharded engine."""
        inst, scheme, rate = _random_acyclic(size=30, seed=4)
        serial = PacketSimEngine(inst, scheme, rate, backend="sharded")
        snap = serial.step(40).snapshot()
        parallel = PacketSimEngine(
            inst, scheme, rate, backend="sharded", workers=4
        )
        with pytest.raises(ValueError, match="shard layout"):
            parallel.restore(snap)

    def test_edgeless_scheme_reports_every_node(self):
        inst = Instance.open_only(1.0, (1.0, 1.0))
        sim = PacketSimEngine(inst, BroadcastScheme(3), 1.0, backend="sharded")
        sim.step(20)
        assert sim.delivered() == [0, 0, 0]

    #: SHA-256 of ``delivered()`` recorded before the backend became a
    #: thin adapter over ``ShardFleet``: n = 200, one kill mid-run.
    GOLDEN_DIGEST = (
        "06a47aeba692682fcdb6036751e9ecab48a7e74469fe60ab6a3c340d8e5fa9ed"
    )

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_delivery_matches_golden_digest(self, workers):
        import numpy as np

        inst = random_instance(np.random.default_rng(2024), 200, 0.5, "Unif100")
        sol = acyclic_guarded_scheme(inst)
        sim = PacketSimEngine(
            inst, sol.scheme, sol.throughput * (1 - 1e-9), backend="sharded",
            workers=workers, packets_per_unit=2.0, seed=5,
        )
        sim.step(60)
        sim.fail_node(17)
        sim.step(60)
        delivered = np.asarray(sim.delivered(), dtype=np.int64)
        digest = hashlib.sha256(delivered.tobytes()).hexdigest()
        assert digest == self.GOLDEN_DIGEST

    def test_workers_rejected_for_serial_backends(self):
        inst, scheme, rate = _fig1()
        with pytest.raises(ValueError, match="single-threaded"):
            PacketSimEngine(inst, scheme, rate, backend="reference", workers=2)
        with pytest.raises(ValueError, match="single-threaded"):
            simulate_packet_broadcast(
                inst, scheme, rate, backend="reference", workers=2
            )
