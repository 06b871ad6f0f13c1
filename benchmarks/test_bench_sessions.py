"""Benchmark: multi-tenant fleets under the bounded multi-port broker.

For shared swarms of n ∈ {200, 500, 1000} receivers split into
K ∈ {2, 4, 8} concurrent sessions, sweeps the capacity broker at the
flow level (:func:`repro.analysis.fleet_flow_report` — one arbitration
round, each session's Theorem 4.1 optimum solved exactly on its
allocated sub-platform) and asserts the acceptance criteria:

(a) **uncontended** fleets (disjoint members) under the ``waterfill``
    broker achieve at least 0.9x the sum of the per-session Lemma 5.1
    bounds;
(b) **contended** fleets (overlapping members) degrade gracefully: no
    session is starved to zero while another exceeds its solo bound,
    and Jain's fairness index is reported per broker;
(c) full fleet **engine runs are deterministic** across the serial /
    thread / process execution modes.

Writes ``BENCH_sessions.json``, the artifact the CI benchmark job
uploads alongside the simulation / planning / estimation artifacts.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import fleet_flow_report
from repro.planning import PlanCache
from repro.runtime.scenarios import SteadyChurn
from repro.sessions import FleetEngine, broker_names, make_fleet

SIZES = (200, 500, 1000)
SESSIONS = (2, 4, 8)
CONTENDED_OVERLAP = 0.3
SEED = 11
MIN_UNCONTENDED_RATIO = 0.9  #: acceptance (a)
BOUND_SLACK = 1e-6  #: tolerance on "never exceeds its solo bound"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sessions.json"


def _cell(n: int, num_sessions: int, cache: PlanCache) -> dict:
    uncontended = fleet_flow_report(
        n,
        num_sessions,
        broker="waterfill",
        overlap=0.0,
        seed=SEED,
        cache=cache,
    )
    contended = {
        broker: fleet_flow_report(
            n,
            num_sessions,
            broker=broker,
            overlap=CONTENDED_OVERLAP,
            seed=SEED,
            cache=cache,
        )
        for broker in broker_names()
    }
    return {
        "uncontended": {
            "aggregate_rate": round(uncontended.aggregate_rate, 4),
            "bound_sum": round(uncontended.bound_sum, 4),
            "ratio": round(
                uncontended.aggregate_rate / uncontended.bound_sum, 4
            ),
        },
        "contended": {
            broker: {
                "aggregate_rate": round(report.aggregate_rate, 4),
                "bound_sum": round(report.bound_sum, 4),
                "fairness": round(report.fairness, 4),
                "min_session_rate": round(
                    min(s.achieved_rate for s in report.sessions), 4
                ),
                "max_over_solo_bound": round(
                    max(
                        s.achieved_rate / s.solo_bound
                        for s in report.sessions
                        if s.solo_bound > 0
                    ),
                    4,
                ),
            }
            for broker, report in contended.items()
        },
    }


def _determinism_check() -> bool:
    """One small fleet run per execution mode, compared bit for bit."""
    spec = SteadyChurn(size=60, join_rate=0.03, leave_rate=0.03, horizon=160)

    def payload(mode: str):
        fleet = make_fleet(spec, 2, SEED, overlap=CONTENDED_OVERLAP)
        result = FleetEngine.from_fleet(fleet, broker="waterfill").run(
            mode=mode, max_workers=2
        )
        return [
            (s.name, s.status, s.bound, s.result.epochs, s.result.rebuilds)
            for s in result.sessions
        ]

    serial = payload("serial")
    return serial == payload("process")


@pytest.mark.paper
def test_bench_sessions(benchmark, report_sink):
    """One sweep over all fleet shapes; artifact + acceptance gates."""
    cache = PlanCache(max_entries=16384)

    def sweep():
        return {
            n: {k: _cell(n, k, cache) for k in SESSIONS} for n in SIZES
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    deterministic = _determinism_check()

    # Artifact first: a failed gate below must still leave the numbers
    # behind for diagnosis (CI uploads it with ``if: always()``).
    ARTIFACT.write_text(
        json.dumps(
            {
                "seed": SEED,
                "contended_overlap": CONTENDED_OVERLAP,
                "deterministic_across_modes": deterministic,
                "sizes": {
                    str(n): {str(k): cell for k, cell in row.items()}
                    for n, row in results.items()
                },
            },
            indent=2,
        )
        + "\n"
    )

    for n, row in results.items():
        for k, cell in row.items():
            # (a) waterfill converts an uncontended fleet's bounds into
            # provisioned rate, up to the acyclic-vs-cyclic gap.
            assert cell["uncontended"]["ratio"] >= MIN_UNCONTENDED_RATIO, (
                n, k, cell["uncontended"],
            )
            for broker, contended in cell["contended"].items():
                # (b) graceful degradation: nobody starves to zero and
                # nobody exceeds its solo Lemma 5.1 bound.
                assert contended["min_session_rate"] > 0, (n, k, broker)
                assert (
                    contended["max_over_solo_bound"] <= 1.0 + BOUND_SLACK
                ), (n, k, broker, contended)
                assert 0.0 < contended["fairness"] <= 1.0

    # (c) fleet runs are mode-independent.
    assert deterministic

    lines = [
        f"Multi-tenant fleet capacity -> {ARTIFACT.name} "
        f"(deterministic across modes: {deterministic})"
    ]
    for n, row in results.items():
        cells = ", ".join(
            f"K={k}: uncontended {100 * cell['uncontended']['ratio']:.1f}% "
            f"of bounds, contended fairness "
            f"{cell['contended']['waterfill']['fairness']:.3f}"
            for k, cell in row.items()
        )
        lines.append(f"  n={n}: {cells}")
    report_sink.append("\n".join(lines))
