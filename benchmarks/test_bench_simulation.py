"""Benchmarks: simulation backends (reference vs sharded).

Times every backend on the same Theorem 4.1 overlay at n ∈ {50, 200,
1000}, asserts the acceptance criteria (equivalent goodput; ≥ 3x
speedup over the reference at n = 1000 for the sharded backend), and
writes ``BENCH_simulation.json`` — the artifact the CI benchmark smoke
job uploads — with per-backend throughput in node-slots per second.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import acyclic_guarded_scheme, random_instance
from repro.simulation import backend_names, simulate_packet_broadcast

SIZES = (50, 200, 1000)
SLOTS = 80
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_simulation.json"


def _bench_size(size: int, seed: int = 7, rounds: int = 2) -> dict:
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, size, 0.7, "Unif100")
    sol = acyclic_guarded_scheme(inst)
    rate = sol.throughput * (1 - 1e-9)
    rows = {}
    for backend in backend_names():
        # Best-of-N timing: shared CI runners are noisy, and the 3x
        # speedup gate below must not flake on a throttling episode.
        elapsed = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            res = simulate_packet_broadcast(
                inst, sol.scheme, rate,
                slots=SLOTS, seed=0, packets_per_unit=2.0 / rate,
                backend=backend,
            )
            elapsed = min(elapsed, time.perf_counter() - started)
        rows[backend] = {
            "seconds": round(elapsed, 4),
            "node_slots_per_sec": round(size * SLOTS / elapsed),
            "efficiency": round(res.efficiency(), 4),
        }
    reference = rows["reference"]["seconds"]
    for row in rows.values():
        row["speedup_vs_reference"] = round(reference / row["seconds"], 2)
    return rows


@pytest.mark.paper
def test_bench_simulation_backends(benchmark, report_sink):
    """One sweep over all sizes and backends; artifact + assertions."""
    results = benchmark.pedantic(
        lambda: {n: _bench_size(n) for n in SIZES}, rounds=1, iterations=1
    )

    # Artifact first: a failed gate below must still leave the timings
    # behind for diagnosis (CI uploads it with ``if: always()``).
    ARTIFACT.write_text(
        json.dumps(
            {"slots": SLOTS, "sizes": {str(n): r for n, r in results.items()}},
            indent=2,
        )
        + "\n"
    )

    for n, rows in results.items():
        for backend, row in rows.items():
            # Backend equivalence: everyone sustains the optimized rate.
            assert row["efficiency"] > 0.85, (n, backend, row)
    # The headline acceptance number: sharding pays off at scale.
    assert results[1000]["sharded"]["speedup_vs_reference"] >= 3.0

    lines = [
        "Simulation-backend throughput (node-slots/sec, "
        f"{SLOTS} slots/run) -> {ARTIFACT.name}"
    ]
    for n, rows in results.items():
        cells = ", ".join(
            f"{b}={r['node_slots_per_sec']:,} ({r['speedup_vs_reference']}x)"
            for b, r in rows.items()
        )
        lines.append(f"  n={n}: {cells}")
    report_sink.append("\n".join(lines))
