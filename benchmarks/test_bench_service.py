"""Benchmarks: control-plane admission latency, incremental vs cold.

For fleets of K ∈ {2, 4, 8} channels over platforms of n ∈
{200, 500, 1000} peers per channel, replays the ``roaming`` request
trace — a tiny channel wandering between access points while the big
channels stand — through a :class:`~repro.service.ControlPlane` under
both planning regimes:

* **incremental** — per-component memoized arbitration, keep fast-path
  and repair deltas: a swap of the roamer's members touches only the
  roamer's own claim component, so every standing channel keeps its
  grants and its plan;
* **full** — the cold-solve control arm: one monolithic broker round
  and a rebuild of every live session per mutating batch, i.e. what a
  plane that does not track change pays for the same requests.

Records end-to-end per-request latency p50/p99 and sustained
requests/sec per regime (warm-up pass, then best-of-2), asserts the
acceptance criterion — incremental admission p50 at least 5x faster
than cold-solve in every cell — verifies the reservation ledger replays
bit-identically in both regimes, and writes ``BENCH_service.json`` for
the CI benchmark job.
"""

import gc
import json
import time
from pathlib import Path

import pytest

from repro.runtime import SteadyChurn
from repro.service import ControlPlane, ReservationLedger, make_trace
from repro.sessions import make_fleet

SWARM_SIZES = (200, 500, 1000)
FLEET_SIZES = (2, 4, 8)
MEASURE_ROUNDS = 2  # plus one warm-up pass per regime
SPEEDUP_FLOOR = 5.0
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _replay(fleet, batches, planning: str, *, ledger=None) -> ControlPlane:
    plane = ControlPlane(
        fleet.platform,
        broker="equal",
        planning=planning,
        seed=3,
        ledger=ledger,
    )
    for batch in batches:
        plane.submit_batch(batch)
    return plane


def _best_of(fleet, batches, planning: str) -> dict:
    """Best-of-N service levels for one regime (after one warm-up)."""
    best = None
    for round_ in range(MEASURE_ROUNDS + 1):
        # Every replay starts from the same collector state: garbage the
        # earlier benchmarks left behind is not collected mid-replay.
        gc.collect()
        started = time.perf_counter()
        plane = _replay(fleet, batches, planning)
        wall = time.perf_counter() - started
        if round_ == 0:
            continue  # warm-up: allocator and interpreter caches settle
        stats = plane.stats()
        if best is None or stats.latency_p50_ms < best["latency_p50_ms"]:
            best = {
                "requests": stats.requests,
                "batches": stats.batches,
                "latency_p50_ms": round(stats.latency_p50_ms, 4),
                "latency_p99_ms": round(stats.latency_p99_ms, 4),
                "requests_per_sec": round(stats.requests_per_sec, 1),
                "builds": stats.builds,
                "repairs": stats.repairs,
                "keeps": stats.keeps,
                "wall_seconds": round(wall, 3),
            }
    return best


def _ledger_replay_identical(tmp_path, planning: str) -> bool:
    """Journal the smallest cell to disk and replay it bit-for-bit."""
    fleet = make_fleet(
        SteadyChurn(size=SWARM_SIZES[0] * FLEET_SIZES[0]),
        FLEET_SIZES[0],
        3,
    )
    batches = make_trace("roaming", fleet, seed=3)
    path = str(tmp_path / f"bench-{planning}.jsonl")
    plane = _replay(fleet, batches, planning, ledger=ReservationLedger(path))
    plane.ledger.close()
    # recover(verify=True) raises on the first diverging grant; reaching
    # the comparison below means the journal replayed cleanly.
    recovered = ControlPlane.recover(path, verify=True, resume_appending=False)
    return recovered._grants_payload() == plane._grants_payload()


@pytest.mark.paper
def test_bench_service(benchmark, report_sink, tmp_path):
    """One sweep over the (n, K) grid; artifact + acceptance gates."""

    def sweep():
        results = {}
        for n in SWARM_SIZES:
            for k in FLEET_SIZES:
                fleet = make_fleet(SteadyChurn(size=n * k), k, 3)
                batches = make_trace("roaming", fleet, seed=3)
                cell = {
                    regime: _best_of(fleet, batches, regime)
                    for regime in ("incremental", "full")
                }
                cell["p50_speedup"] = round(
                    cell["full"]["latency_p50_ms"]
                    / cell["incremental"]["latency_p50_ms"],
                    2,
                )
                results[f"n={n},K={k}"] = cell
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ledger_ok = {
        regime: _ledger_replay_identical(tmp_path, regime)
        for regime in ("incremental", "full")
    }

    # Artifact first: a failed gate below must still leave the timings
    # behind for diagnosis (CI uploads it with ``if: always()``).
    ARTIFACT.write_text(
        json.dumps(
            {
                "trace": "roaming",
                "broker": "equal",
                "speedup_floor": SPEEDUP_FLOOR,
                "ledger_replay_identical": ledger_ok,
                "cells": results,
            },
            indent=2,
        )
        + "\n"
    )

    # The reservation ledger is the control plane's source of truth:
    # replaying it must land on the exact grants the live plane held.
    assert all(ledger_ok.values()), ledger_ok
    # The headline acceptance number: tracking change beats cold-solving
    # the whole platform by at least 5x in admission p50, in every cell.
    for cell, row in results.items():
        assert row["p50_speedup"] >= SPEEDUP_FLOOR, (cell, row)

    lines = [f"Control-plane admission latency -> {ARTIFACT.name}"]
    for cell, row in results.items():
        inc, full = row["incremental"], row["full"]
        lines.append(
            f"  {cell}: incremental p50 {inc['latency_p50_ms']:.3f} ms "
            f"(p99 {inc['latency_p99_ms']:.3f}, "
            f"{inc['requests_per_sec']:.0f} req/s) vs cold-solve p50 "
            f"{full['latency_p50_ms']:.3f} ms -> {row['p50_speedup']}x"
        )
    lines.append(
        "  ledger replay bit-identical: "
        + ", ".join(f"{k}={v}" for k, v in ledger_ok.items())
    )
    report_sink.append("\n".join(lines))
