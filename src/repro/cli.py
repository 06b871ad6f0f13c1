"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro table1
    python -m repro figure7  [--full]
    python -m repro figure19 [--full]
    python -m repro worstcase
    python -m repro ablations
    python -m repro solve --source 6 --open 5 5 --guarded 4 1 1
    python -m repro demo
    python -m repro runtime --scenario steady-churn --controller reactive
    python -m repro runtime --batch --scenario rack-failure
    python -m repro runtime --estimation online --probes-per-node 4
    python -m repro serve --trace roaming --ledger /tmp/plane.jsonl
    python -m repro request --ledger /tmp/plane.jsonl --op query
    python -m repro lint src tests benchmarks --format json

``--full`` switches the sweeps to paper scale (equivalent to
``REPRO_FULL=1``).  ``solve`` runs the whole pipeline on an ad-hoc
instance and prints the overlay.  ``runtime`` replays a dynamic-platform
scenario through the event-driven engine (per-epoch goodput report); in
``--batch`` mode it sweeps every controller policy across worker
processes.  ``serve`` drives a registered request trace through the
long-running control plane (over a real asyncio socket by default),
and ``request`` submits one ad-hoc request to a plane recovered from
its reservation ledger.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Callable, Iterator, NoReturn, Optional, Sequence

__all__ = ["main", "build_parser"]


class _InputError(SystemExit):
    """Bad command-line input: :func:`main` prints ``error: <message>``
    as one stderr line and returns 2.  A ``SystemExit`` with code 2, so a
    bare ``build_parser().parse_args`` still exits on bad input."""

    def __init__(self, message: str) -> None:
        super().__init__(2)
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Routes argparse's own errors (unknown choice, missing or
    unparsable value) into :class:`_InputError`."""

    def error(self, message: str) -> NoReturn:
        raise _InputError(message)


@contextlib.contextmanager
def _rejecting() -> Iterator[None]:
    """Report a registry miss (``KeyError``) or a constructor's argument
    check (``ValueError``) as an input error."""
    try:
        yield
    except KeyError as exc:
        raise _InputError(exc.args[0]) from None
    except ValueError as exc:
        raise _InputError(str(exc)) from None


#: Range rules of the typed numeric flags, keyed by the text of their
#: error line (``error: --seed must be >= 0, got -1``).  NaN fails all.
_RULES: dict[str, Callable[[float], bool]] = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "finite and >= 0": lambda v: 0 <= v < math.inf,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def _typed(
    parser: argparse.ArgumentParser,
    flag: str,
    parse: Callable[[str], float],
    rule: str,
    **kwargs,
) -> None:
    """Declare numeric ``flag``, checked against ``_RULES[rule]`` as it
    is parsed."""
    check = _RULES[rule]

    def convert(text: str) -> float:
        value = parse(text)
        if not check(value):
            raise _InputError(f"{flag} must be {rule}, got {value}")
        return value

    convert.__name__ = parse.__name__  # argparse's "invalid int value"
    parser.add_argument(flag, type=convert, **kwargs)


def _add_common(
    parser: argparse.ArgumentParser, *, seed_help: str, list_help: str
) -> None:
    """Flags of every platform command: ``runtime``, ``sessions``,
    ``serve``."""
    parser.add_argument("--scenario", default="steady-churn",
                        help="registered scenario name for the "
                             "(shared) swarm (see --list)")
    _typed(parser, "--seed", int, ">= 0", default=0, help=seed_help)
    parser.add_argument("--list", action="store_true", dest="list_names",
                        help=list_help)


def _add_fleet(parser: argparse.ArgumentParser, *, admission: str) -> None:
    """Multi-tenant flags of ``sessions`` and ``serve``."""
    from .sessions import admission_names, broker_names

    _typed(parser, "--num-sessions", int, ">= 1", default=3, metavar="K",
           help="number of concurrent broadcast sessions sharing the "
                "platform")
    _typed(parser, "--overlap", float, "in [0, 1]", default=0.25,
           metavar="P",
           help="probability that a node subscribes to each extra "
                "session beyond its primary one (0 = disjoint members, "
                "no contention)")
    parser.add_argument("--broker", default="waterfill",
                        help="capacity-broker policy partitioning each "
                             "shared node's upload, one of: "
                             f"{', '.join(broker_names())}")
    parser.add_argument("--admission", default=admission,
                        help="what happens to sessions whose allocated "
                             "Lemma 5.1 bound falls below the floor, "
                             f"one of: {', '.join(admission_names())}")
    _typed(parser, "--admission-floor", float, ">= 0", default=0.0,
           metavar="RATE",
           help="minimum allocated rate bound a session needs to be "
                "admitted cleanly")


def _add_engine(parser: argparse.ArgumentParser, *, workers_help: str) -> None:
    """Engine-run flags of ``runtime`` and ``sessions``."""
    from .estimation.online import PROBES_PER_NODE
    from .runtime.controller import controller_names

    parser.add_argument("--controller", default="reactive",
                        help="re-optimization policy (of every session), "
                             f"one of: {', '.join(controller_names())}")
    parser.add_argument("--estimation", default="oracle",
                        choices=["oracle", "online"],
                        help="bandwidth feed for the controllers: "
                             "'oracle' reads the platform's true "
                             "bandwidths, 'online' plans on LastMile "
                             "estimates re-fit every epoch from seeded "
                             "sparse pairwise probes (repro.estimation."
                             "online), with planned rates clipped to "
                             "true capacities and leveled to the worst "
                             "receiver's max-flow in the transport")
    _typed(parser, "--probes-per-node", float, "finite and >= 0",
           default=PROBES_PER_NODE, metavar="K",
           help="probe budget per node per epoch boundary: round(K * "
                "num_alive) directed pairs, amortized across the "
                "sessions of a fleet (--estimation online only)")
    _typed(parser, "--workers", int, ">= 1", default=None,
           help=workers_help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description=(
            "Reproduction of 'Broadcasting on Large Scale Heterogeneous "
            "Platforms under the Bounded Multi-Port Model' "
            "(Beaumont et al., IPDPS 2010 / TPDS 2014)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in [
        ("table1", "regenerate Table I (Algorithm 2 trace)"),
        ("figure7", "regenerate Figure 7 (worst-case grid)"),
        ("figure19", "regenerate Figure 19 (average-case sweep)"),
        ("worstcase", "Figures 1/6/18, Theorems 6.1/6.3"),
        ("ablations", "design-choice ablations incl. depth & churn"),
        ("demo", "short guided demo on the Figure 1 instance"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument(
            "--full",
            action="store_true",
            help="run at paper scale (slow)",
        )

    solve = sub.add_parser(
        "solve", help="optimize an ad-hoc instance and print the overlay"
    )
    solve.add_argument("--source", type=float, required=True,
                       help="source outgoing bandwidth b0")
    solve.add_argument("--open", type=float, nargs="*", default=[],
                       dest="open_bws", metavar="BW",
                       help="open-node bandwidths")
    solve.add_argument("--guarded", type=float, nargs="*", default=[],
                       dest="guarded_bws", metavar="BW",
                       help="guarded-node bandwidths")
    _typed(solve, "--rate", float, "finite and >= 0", default=None,
           help="target rate (default: the acyclic optimum)")
    solve.add_argument("--cyclic", action="store_true",
                       help="build the Theorem 5.2 cyclic scheme "
                            "(open-only instances)")

    # Dynamic choice lists: --help always reflects the live registries
    # (a plugin registering a controller/planner/broker shows up
    # immediately, and nothing here can drift from the code).
    from .planning import planner_names
    from .runtime.engine import SIM_BACKENDS

    runtime = sub.add_parser(
        "runtime",
        help="event-driven dynamic-platform run (repro.runtime)",
    )
    _add_common(runtime, seed_help="seed for swarm sampling, events, "
                                   "transport",
                list_help="list registered scenarios, controllers and "
                          "planners")
    _add_engine(runtime, workers_help="worker processes for --batch")
    runtime.add_argument("--planner", default=None,
                         help="plan-lifecycle implementation, one of: "
                              f"{', '.join(planner_names())} "
                              "(default: 'incremental' for the "
                              "incremental controller, 'full' otherwise)")
    _typed(runtime, "--repair-tolerance", float, "in [0, 1)", default=None,
           metavar="FRAC",
           help="incremental planner only: maximum fraction below the "
                "current optimum a repaired plan may provision before a "
                "full rebuild is forced (default 0.1)")
    runtime.add_argument("--period", type=int, default=120,
                         help="rebuild period of the periodic controller")
    _typed(runtime, "--tick", int, ">= 1", default=1,
           help="minimum epoch length in slots (batches event storms)")
    runtime.add_argument("--batch", action="store_true",
                         help="sweep the scenario across every controller "
                              "in parallel instead of one run")
    _typed(runtime, "--seeds", int, ">= 1", default=3,
           help="number of seeds per cell in --batch mode (starting at "
                "--seed)")
    runtime.add_argument("--sim-backend", default="auto",
                         choices=SIM_BACKENDS,
                         help="per-epoch transport implementation: "
                              "'auto' (default: the plan's broadcast "
                              "trees on the sharded transport when the "
                              "overlay decomposes, reference otherwise) "
                              "or 'reference' (historical per-edge "
                              "random-useful-packet loop, any scheme)")
    runtime.add_argument("--profile", action="store_true",
                         help="after the run, print the per-phase "
                              "wall-clock breakdown (plan / arbitrate / "
                              "simulate / epoch-boundary)")
    runtime.add_argument("--warm-epochs", action="store_true",
                         help="carry packet buffers across epochs of the "
                              "same plan instead of restarting the "
                              "transport cold each epoch (short epochs "
                              "then measure real transients, not "
                              "ramp-ups)")
    _typed(runtime, "--noise-sigma", float, "finite and >= 0", default=0.1,
           metavar="SIGMA",
           help="log-normal measurement noise scale of each probe "
                "(--estimation online only)")
    _typed(runtime, "--estimator-decay", float, "in (0, 1]", default=0.8,
           metavar="D",
           help="per-round exponential decay of stale probes; a "
                "measurement is dropped once D**age falls below 0.05 "
                "(--estimation online only)")

    sessions = sub.add_parser(
        "sessions",
        help="multi-tenant concurrent broadcast fleet (repro.sessions)",
    )
    _add_common(sessions, seed_help="fleet seed (swarm, membership, "
                                    "transport)",
                list_help="list registered scenarios, controllers, "
                          "brokers and admission policies")
    _add_fleet(sessions, admission="degrade")
    _add_engine(sessions, workers_help="worker processes for --mode "
                                       "process")
    _typed(sessions, "--demand", float, "> 0", default=None, metavar="RATE",
           help="per-session demand rate (default: best effort)")
    sessions.add_argument("--mode", default="serial",
                          choices=["serial", "process"],
                          help="how the per-session engine runs are "
                               "dispatched (results are identical)")

    from .service import trace_names

    serve = sub.add_parser(
        "serve",
        help="long-running broadcast control plane (repro.service)",
    )
    _add_common(serve, seed_help="fleet + trace seed",
                list_help="list registered scenarios, traces, brokers, "
                          "admission policies and planning modes")
    _add_fleet(serve, admission="reject")
    serve.add_argument("--trace", default="mixed",
                       help="registered request trace to drive through "
                            "the plane, one of: "
                            f"{', '.join(trace_names())}")
    serve.add_argument("--planning", default="incremental",
                       help="plan lifecycle per session, one of: "
                            f"{', '.join(planner_names())} "
                            "('full' is the cold-solve control arm)")
    _typed(serve, "--repair-tolerance", float, "in [0, 1)", default=0.1,
           metavar="FRAC",
           help="incremental planning only: maximum fraction below "
                "optimum a repaired plan may provision before a rebuild "
                "is forced")
    serve.add_argument("--ledger", default=None, metavar="PATH",
                       help="journal every batch to this reservation "
                            "ledger (JSONL) and verify a bit-identical "
                            "replay after the trace drains")
    serve.add_argument("--transport", default="tcp",
                       choices=["tcp", "inproc"],
                       help="drive the trace over a real asyncio socket "
                            "server on loopback, or through the "
                            "in-process codec round-trip")

    # The rule list below is read from the live RULES registry at parser
    # build time, matching the CONTROLLERS/PLANNERS/BROKERS convention:
    # a plugin rule shows up in --help and --list immediately.
    from .devtools import rule_names

    lint = sub.add_parser(
        "lint",
        help="determinism & concurrency static analysis (repro.devtools)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: src tests benchmarks)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json"], dest="lint_format",
                      help="'text' prints compiler-style findings, "
                           "'json' emits the stable repro-lint/1 "
                           "document (the CI artifact)")
    lint.add_argument("--select", nargs="*", default=None, metavar="REPxxx",
                      help="run only these rule codes, one or more of: "
                           f"{', '.join(rule_names())}")
    lint.add_argument("--list", action="store_true", dest="list_names",
                      help="list registered rules with scope and the "
                           "replay guarantee each protects")

    request = sub.add_parser(
        "request",
        help="submit one ad-hoc request to a ledger-backed plane",
    )
    request.add_argument("--ledger", required=True, metavar="PATH",
                         help="reservation ledger to recover the plane "
                              "from (create one with 'serve --ledger'); "
                              "the request is appended to the journal")
    request.add_argument("--op", required=True,
                         choices=["start_session", "stop_session",
                                  "migrate_session", "priority_change",
                                  "query"],
                         help="request type")
    request.add_argument("--name", default=None,
                         help="session name (optional for query: omit "
                              "for a whole-fleet snapshot)")
    request.add_argument("--source-bw", type=float, default=None,
                         help="origin uplink bandwidth (start, or "
                              "re-provision during migrate)")
    request.add_argument("--demand", type=float, default=None,
                         help="demand rate for start_session "
                              "(default: best effort)")
    request.add_argument("--priority", type=float, default=None,
                         help="broker weight (start_session / "
                              "priority_change)")
    request.add_argument("--members", type=int, nargs="*", default=[],
                         metavar="NODE",
                         help="member node ids for start_session")
    request.add_argument("--add", type=int, nargs="*", default=[],
                         dest="add_members", metavar="NODE",
                         help="members to add (migrate_session)")
    request.add_argument("--remove", type=int, nargs="*", default=[],
                         dest="remove_members", metavar="NODE",
                         help="members to remove (migrate_session)")
    request.add_argument("--no-verify", action="store_true",
                         help="skip the bit-identical replay check while "
                              "recovering from the ledger")
    return parser


def _cmd_table1(_args: argparse.Namespace) -> int:
    from .experiments.table1 import render_table1

    print(render_table1())
    return 0


def _cmd_figure7(_args: argparse.Namespace) -> int:
    from .experiments.figure7 import Figure7Config, run_figure7
    from .experiments.report import render_figure7

    print(render_figure7(run_figure7(Figure7Config.from_env())))
    return 0


def _cmd_figure19(_args: argparse.Namespace) -> int:
    from .experiments.figure19 import Figure19Config, run_figure19
    from .experiments.report import render_figure19

    print(render_figure19(run_figure19(Figure19Config.from_env())))
    return 0


def _cmd_worstcase(_args: argparse.Namespace) -> int:
    from .experiments.report import (
        render_figure1,
        render_figure6,
        render_figure18,
        render_theorem61,
        render_theorem63,
    )
    from .experiments.worstcase import (
        figure1_report,
        figure6_report,
        figure18_report,
        theorem61_report,
        theorem63_report,
    )

    print(render_figure1(figure1_report()))
    print()
    print(render_figure6(figure6_report()))
    print()
    print(render_figure18(figure18_report()))
    print()
    print(render_theorem63(theorem63_report()))
    print()
    print(render_theorem61(theorem61_report()))
    return 0


def _cmd_ablations(_args: argparse.Namespace) -> int:
    from .analysis import (
        churn_experiment,
        depth_ablation,
        estimation_gap_experiment,
        perturbation_experiment,
    )
    from .experiments.ablations import (
        baseline_comparison,
        cyclic_gain,
        estimation_ablation,
        greedy_vs_exhaustive,
        packing_degree_ablation,
        repair_tolerance_ablation,
        service_ablation,
        sessions_ablation,
        simulation_backend_ablation,
        source_sensitivity,
    )
    from .experiments.common import format_table
    from .experiments.report import (
        render_baselines,
        render_cyclic_gain,
        render_packing,
    )

    print(
        "greedy vs exhaustive worst relative error: "
        f"{greedy_vs_exhaustive():.2e}"
    )
    print()
    print(render_packing(packing_degree_ablation()))
    print()
    print(render_baselines(baseline_comparison()))
    print()
    print(render_cyclic_gain(cyclic_gain()))
    print()
    rows = depth_ablation()
    print("Depth ablation (FIFO vs min-depth packing, by rate back-off):")
    print(
        format_table(
            ["n", "rate frac", "fifo depth", "min-depth depth",
             "fifo excess", "min-depth excess"],
            [
                [r.size, r.rate_fraction, r.fifo_max_depth,
                 r.depth_aware_max_depth, r.fifo_max_excess,
                 r.depth_aware_max_excess]
                for r in rows
            ],
        )
    )
    print()
    print("Source-saturation sensitivity (b0 = factor * fixed point):")
    print(
        format_table(
            ["factor", "mean ratio", "min ratio"],
            [[r.source_factor, r.mean_ratio, r.min_ratio]
             for r in source_sensitivity()],
        )
    )
    print()
    print("Bandwidth-perturbation robustness (graceful-degradation floor):")
    print(
        format_table(
            ["eps", "planned", "worst delivered", "(1-eps) floor"],
            [[r.eps, r.planned_rate, r.worst_delivered, r.graceful_floor]
             for r in perturbation_experiment()],
        )
    )
    print()
    print("Simulation backends (same overlay, same seed, per-edge loop "
          "vs arborescence-sharded):")
    print(
        format_table(
            ["backend", "efficiency", "wall s", "speedup"],
            [[r.backend, f"{r.efficiency:.3f}", f"{r.wall_seconds:.3f}",
              f"{r.speedup:.1f}x"]
             for r in simulation_backend_ablation()],
        )
    )
    print()
    print("Repair-tolerance ablation (incremental planner, steady churn):")
    print(
        format_table(
            ["tolerance", "rebuilds", "repairs", "fallbacks", "mean opt",
             "plan ms"],
            [
                [r.tolerance, r.rebuilds, r.repairs, r.fallbacks,
                 f"{r.mean_optimality:.3f}", f"{1000 * r.plan_seconds:.1f}"]
                for r in repair_tolerance_ablation()
            ],
        )
    )
    print()
    print("Estimation gap (overlay built on probed bandwidths, clipped to "
          "truth; flow-level):")
    print(
        format_table(
            ["probes/node", "sigma", "oracle", "planned", "achieved",
             "gap", "median err"],
            [
                [r.probes_per_node, r.noise_sigma, f"{r.oracle_rate:.2f}",
                 f"{r.planned_rate:.2f}", f"{r.achieved_rate:.2f}",
                 f"{r.gap:.3f}", f"{r.median_rel_error:.3f}"]
                for r in estimation_gap_experiment(
                    budgets=(8.0, 4.0, 1.0), sigmas=(0.05, 0.1, 0.3)
                )
            ],
        )
    )
    print()
    print("Estimation in the loop (steady churn, reactive controller, "
          "oracle vs measured bandwidths):")
    print(
        format_table(
            ["estimation", "probes/node", "mean opt", "mean dlv",
             "probes", "est err"],
            [
                [r.estimation, r.probes_per_node,
                 f"{r.mean_optimality:.3f}", f"{r.mean_delivered:.3f}",
                 r.probes, f"{r.est_error:.3f}"]
                for r in estimation_ablation()
            ],
        )
    )
    print()
    print("Multi-tenant sessions (contended fleet, heterogeneous demands, "
          "per broker policy):")
    print(
        format_table(
            ["broker", "admitted", "aggregate", "ceiling", "fairness",
             "worst sess", "re-arb"],
            [
                [r.broker, f"{r.admitted}/{r.num_sessions}",
                 f"{r.aggregate:.1f}", f"{r.ceiling_sum:.1f}",
                 f"{r.fairness:.3f}", f"{r.worst_session:.1f}",
                 r.rearbitrations]
                for r in sessions_ablation()
            ],
        )
    )
    print()
    print("Control plane (request traces, incremental re-arbitration vs "
          "cold solve):")

    def _opt(value: float) -> str:
        return "-" if math.isnan(value) else f"{value:.3f}"

    print(
        format_table(
            ["trace", "broker", "planning", "p50 ms", "p99 ms", "req/s",
             "builds", "repairs", "keeps", "disrupt", "mig good", "speedup"],
            [
                [r.trace, r.broker, r.planning,
                 f"{r.latency_p50_ms:.3f}", f"{r.latency_p99_ms:.3f}",
                 f"{r.requests_per_sec:.0f}", r.builds, r.repairs, r.keeps,
                 _opt(r.preemption_disruption), _opt(r.migration_goodput),
                 f"{r.p50_speedup:.1f}x"]
                for r in service_ablation()
            ],
        )
    )
    print()
    rep = churn_experiment()
    print(
        "Churn: failing the busiest relay mid-stream "
        f"(forwarding {rep.failed_forwarding:.1f}) drops the worst "
        f"survivor goodput from {rep.healthy_min_goodput:.1f} to "
        f"{rep.churn_min_goodput:.1f} ({rep.starved_nodes} starved); "
        f"static re-optimization restores rate {rep.repaired_rate:.1f} "
        f"({100 * rep.repair_ratio:.0f}% of the original)."
    )
    if rep.incremental_repairs:
        print(
            "Repair vs rebuild on the same trace: incremental repair "
            f"reaches {100 * rep.repair_vs_rebuild:.0f}% of the full "
            f"rebuild's post-failure goodput for "
            f"{1000 * rep.repair_plan_seconds:.2f} ms of planning vs "
            f"{1000 * rep.rebuild_plan_seconds:.2f} ms "
            f"({rep.incremental_repairs} delta(s) applied)."
        )
    else:
        print(
            "Repair vs rebuild on the same trace: the busiest relay's "
            "departure exceeded the spare upload credit, so the "
            "incremental planner fell back to a full rebuild "
            f"(goodput parity: {100 * rep.repair_vs_rebuild:.0f}%)."
        )
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from . import (
        acyclic_guarded_scheme,
        cyclic_optimum,
        figure1_instance,
        optimal_acyclic_throughput,
        scheme_throughput,
    )

    inst = figure1_instance()
    print("Instance:", inst)
    print("T* (Lemma 5.1)   :", cyclic_optimum(inst))
    t, word = optimal_acyclic_throughput(inst)
    print(f"T*_ac (Thm 4.1)  : {t:.6g}  word={word!r}")
    sol = acyclic_guarded_scheme(inst)
    print("overlay:")
    print(sol.scheme.format_edges(inst))
    print("throughput:", scheme_throughput(sol.scheme, inst))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import (
        Instance,
        acyclic_guarded_scheme,
        cyclic_open_scheme,
        cyclic_optimum,
        scheme_throughput,
    )
    from .analysis import scheme_stats
    from .core.exceptions import ReproError

    try:
        inst = Instance(
            args.source, tuple(args.open_bws), tuple(args.guarded_bws)
        )
        print("Instance:", inst)
        print("T* (Lemma 5.1):", cyclic_optimum(inst))
        if args.cyclic:
            if inst.m != 0:
                raise _InputError(
                    "--cyclic requires an open-only instance (Theorem 5.2)"
                )
            scheme = cyclic_open_scheme(inst, args.rate)
            rate = scheme_throughput(scheme, inst, method="maxflow")
            print(f"Theorem 5.2 cyclic scheme at rate {rate:.6g}:")
        else:
            sol = acyclic_guarded_scheme(inst, args.rate)
            scheme = sol.scheme
            print(
                f"Theorem 4.1 acyclic scheme at rate {sol.throughput:.6g} "
                f"(word {sol.word!r}):"
            )
    except ReproError as exc:
        raise _InputError(str(exc)) from None
    print(scheme.format_edges(inst))
    stats = scheme_stats(inst, scheme)
    print(
        f"edges={stats.num_edges} max_degree={stats.max_outdegree} "
        f"degree_excess={stats.max_degree_excess} "
        f"depth={stats.max_depth if stats.max_depth is not None else '-'}"
    )
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    from .experiments.common import format_table
    from .runtime import (
        RuntimeEngine,
        controller_names,
        get_scenario,
        make_controller,
        planner_names,
        run_batch,
        scenario_grid,
        scenario_names,
        summarize_batch,
    )

    if args.list_names:
        print("scenarios  :", ", ".join(scenario_names()))
        print("controllers:", ", ".join(controller_names()))
        print("planners   :", ", ".join(planner_names()))
        return 0

    if args.workers is not None and not args.batch:
        raise _InputError(
            "--workers sizes the --batch pool; a single run has none "
            "(pass --batch)"
        )
    if args.profile and args.batch:
        raise _InputError(
            "--profile applies to a single run, not --batch sweeps"
        )
    # Every engine knob, declared once: a single run and every job of a
    # sweep get the same dict.
    knobs = dict(
        min_epoch_slots=args.tick,
        sim_backend=args.sim_backend,
        warm_epochs=args.warm_epochs,
        planner=args.planner,
        repair_tolerance=args.repair_tolerance,
        estimation=args.estimation,
        probes_per_node=args.probes_per_node,
        estimator_decay=args.estimator_decay,
        noise_sigma=args.noise_sigma,
    )
    # Build every controller the run or sweep resolves, so the registry's
    # name check and the constructors' own argument checks (a positive
    # period) fail here as an error line, not mid-run or inside a pool
    # worker.  The engine built below checks the planner name.
    swept = controller_names() if args.batch else [args.controller]
    with _rejecting():
        spec = get_scenario(args.scenario)
        controllers = {
            c: make_controller(
                c, **({"period": args.period} if c == "periodic" else {})
            )
            for c in swept
        }
    # The tolerance only reaches the incremental planner.  In --batch
    # mode the sweep always includes the incremental policy, so it is
    # never dead; a single run must actually resolve that planner.
    if (
        args.repair_tolerance is not None
        and not args.batch
        and (args.planner or controllers[args.controller].planner)
        != "incremental"
    ):
        raise _InputError(
            "--repair-tolerance applies to the 'incremental' planner "
            "(pass --planner incremental or --controller incremental)"
        )
    # The engine's own checks run on the first seed's platform before
    # anything is simulated or a sweep is dispatched.
    run = spec.build(args.seed, name=args.scenario)
    with _rejecting():
        engine = RuntimeEngine(
            run.platform,
            run.events,
            run.horizon,
            seed=args.seed,
            **knobs,
        )

    if args.batch:
        seeds = range(args.seed, args.seed + args.seeds)
        jobs = scenario_grid(
            [args.scenario],
            controller_names(),
            seeds=seeds,
            controller_kwargs={"periodic": {"period": args.period}},
            engine_kwargs=knobs,
        )
        print(
            f"sweep: {args.scenario} x {{{', '.join(controller_names())}}} "
            f"x seeds {seeds.start}..{seeds.stop - 1} ({len(jobs)} runs; "
            f"--controller is ignored, every policy is swept)"
        )
        print(summarize_batch(run_batch(jobs, max_workers=args.workers)))
        return 0

    print(
        f"scenario {args.scenario!r}: {run.platform.num_alive} receivers, "
        f"{len(run.events)} events over {run.horizon} slots; "
        f"controller {args.controller!r}, seed {args.seed}"
    )
    result = engine.run(controllers[args.controller])
    print(
        format_table(
            ["epoch", "slots", "alive", "planned", "T*_ac", "min goodput",
             "delivered", "starved", "plan"],
            [
                [
                    f"{e.start}-{e.end}", e.slots, e.num_alive,
                    f"{e.planned_rate:.3f}", f"{e.optimal_rate:.3f}",
                    f"{e.min_goodput:.3f}", f"{e.delivered_fraction:.2f}",
                    e.starved, e.plan_op if e.rebuilt else "-",
                ]
                for e in result.epochs
            ],
        )
    )
    latency = (
        "-"
        if result.mean_repair_latency is None
        else f"{result.mean_repair_latency:.1f} slots"
    )
    print(
        f"planner={result.planner}  "
        f"rebuilds={result.rebuilds}  "
        f"repairs={result.repairs} "
        f"(fallbacks={result.repair_fallbacks})  "
        f"mean delivered={result.mean_delivered_fraction:.3f}  "
        f"mean vs T*_ac={result.mean_optimality_fraction:.3f}  "
        f"repair latency={latency}  "
        f"plan time={1000 * result.plan_seconds:.1f} ms  "
        f"overlay cache={result.cache_hits}/"
        f"{result.cache_hits + result.cache_misses}"
    )
    if args.profile:
        phases = result.phase_seconds
        total = sum(phases.values())
        denom = total if total > 0 else 1.0
        print(
            "profile: "
            + "  ".join(
                f"{name}={1000 * secs:.1f}ms ({100 * secs / denom:.0f}%)"
                for name, secs in phases.items()
            )
            + f"  total={1000 * total:.1f}ms"
        )
    if result.estimation == "online":
        err = result.mean_estimation_error
        print(
            f"estimation=online  probes={result.probes} "
            f"({args.probes_per_node:g}/node/epoch, "
            f"sigma={args.noise_sigma:g})  "
            f"mean est error="
            f"{'-' if err is None else f'{err:.3f}'}"
        )
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    from .experiments.common import format_table
    from .runtime import controller_names, make_controller, scenario_names
    from .sessions import (
        FleetEngine,
        admission_names,
        broker_names,
        make_fleet,
    )

    if args.list_names:
        print("scenarios :", ", ".join(scenario_names()))
        print("controllers:", ", ".join(controller_names()))
        print("brokers   :", ", ".join(broker_names()))
        print("admissions:", ", ".join(admission_names()))
        return 0

    if args.workers is not None and args.mode != "process":
        raise _InputError(
            "--workers sizes the --mode process pool; a serial fleet has "
            "none (pass --mode process)"
        )
    with _rejecting():
        make_controller(args.controller)  # the fleet resolves it mid-run
        fleet = make_fleet(
            args.scenario,
            args.num_sessions,
            args.seed,
            overlap=args.overlap,
            demand=math.inf if args.demand is None else args.demand,
        )
        engine = FleetEngine.from_fleet(
            fleet,
            broker=args.broker,
            admission=args.admission,
            admission_floor=args.admission_floor,
            controller=args.controller,
            estimation=args.estimation,
            probes_per_node=args.probes_per_node,
        )
    print(
        f"fleet {args.scenario!r}: {fleet.platform.num_alive} shared "
        f"receivers, {args.num_sessions} sessions (overlap "
        f"{args.overlap:g}), {len(fleet.events)} events over "
        f"{fleet.horizon} slots; broker {args.broker!r}, admission "
        f"{args.admission!r} (floor {args.admission_floor:g}), "
        f"controller {args.controller!r}, seed {args.seed}"
    )
    result = engine.run(mode=args.mode, max_workers=args.workers)
    print(
        format_table(
            ["session", "status", "members", "alloc bound", "solo bound",
             "goodput", "delivered", "rebuilds", "repairs"],
            [
                [
                    s.name, s.status,
                    f"{s.initial_members}->{s.final_alive}",
                    f"{s.bound:.2f}", f"{s.solo_bound:.2f}",
                    f"{s.goodput:.2f}",
                    "-" if s.result is None
                    else f"{s.result.mean_delivered_fraction:.3f}",
                    "-" if s.result is None else s.result.rebuilds,
                    "-" if s.result is None else s.result.repairs,
                ]
                for s in result.sessions
            ],
        )
    )
    ceiling = result.bound_sum
    print(
        f"aggregate goodput={result.aggregate_goodput:.2f} "
        f"(ceiling {ceiling:.2f}"
        + (
            f", {result.aggregate_goodput / ceiling:.0%}"
            if math.isfinite(ceiling) and ceiling > 0
            else ""
        )
        + f")  fairness={result.fairness:.3f}  "
        f"admitted={len(result.admitted)}/{len(result.sessions)}  "
        f"re-arbitrations={result.rearbitrations}"
    )
    if args.estimation == "online":
        print(
            f"estimation=online  probes={result.total_probes} "
            f"(fleet budget {args.probes_per_node:g}/node amortized to "
            f"{result.probes_per_node:.2f}/node/session)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from collections import Counter

    from .experiments.common import format_table
    from .planning import planner_names
    from .runtime import scenario_names
    from .service import (
        ControlPlane,
        ControlPlaneClient,
        ControlPlaneServer,
        InProcessTransport,
        ReservationLedger,
        make_trace,
        trace_names,
    )
    from .sessions import admission_names, broker_names, make_fleet

    if args.list_names:
        print("scenarios :", ", ".join(scenario_names()))
        print("traces    :", ", ".join(trace_names()))
        print("brokers   :", ", ".join(broker_names()))
        print("admissions:", ", ".join(admission_names()))
        print("planning  :", ", ".join(planner_names()))
        return 0

    with _rejecting():
        fleet = make_fleet(
            args.scenario, args.num_sessions, args.seed, overlap=args.overlap
        )
        batches = make_trace(args.trace, fleet, seed=args.seed)
        ledger = ReservationLedger(args.ledger)
        plane = ControlPlane(
            fleet.platform,
            broker=args.broker,
            admission=args.admission,
            admission_floor=args.admission_floor,
            planning=args.planning,
            repair_tolerance=args.repair_tolerance,
            seed=args.seed,
            ledger=ledger,
        )
    print(
        f"plane: {fleet.platform.num_alive} shared receivers, trace "
        f"{args.trace!r} ({len(batches)} batches), broker {args.broker!r}, "
        f"planning {args.planning!r}, transport {args.transport}, "
        f"seed {args.seed}"
    )

    statuses: Counter = Counter()
    if args.transport == "tcp":

        async def drive() -> None:
            async with ControlPlaneServer(plane) as server:
                client = ControlPlaneClient(port=server.port)
                async with client:
                    for batch in batches:
                        for resp in await client.submit_batch(batch):
                            statuses[resp.status] += 1

        asyncio.run(drive())
    else:
        transport = InProcessTransport(plane)
        for batch in batches:
            for resp in transport.submit_batch(batch):
                statuses[resp.status] += 1

    print(
        format_table(
            ["session", "status", "members", "granted", "bound",
             "priority", "builds", "repairs"],
            [
                [
                    name, entry.status, len(entry.spec.members),
                    f"{math.fsum(entry.grants.values()):.2f}",
                    f"{entry.bound:.2f}", f"{entry.spec.priority:g}",
                    entry.builds, entry.repairs,
                ]
                for name, entry in sorted(plane.sessions.items())
            ],
        )
    )
    s = plane.stats()
    outcome = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    print(
        f"requests={s.requests} ({outcome})  batches={s.batches}  "
        f"p50={s.latency_p50_ms:.3f} ms  p99={s.latency_p99_ms:.3f} ms  "
        f"{s.requests_per_sec:.0f} req/s"
    )
    print(
        f"plans: builds={s.builds} repairs={s.repairs} "
        f"(fallbacks={s.fallbacks}) keeps={s.keeps}  "
        f"arbitration memo {s.arb_hits}/{s.arb_hits + s.arb_misses}"
    )
    if args.ledger:
        ledger.close()
        ControlPlane.recover(args.ledger, resume_appending=False)
        print(
            f"ledger: {len(ledger.records)} records at {args.ledger}; "
            f"replay verified bit-identical"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools import (
        DEFAULT_PATHS,
        RULES,
        render_json,
        render_text,
        rule_names,
        run_lint,
    )

    if args.list_names:
        print("rules     :", ", ".join(rule_names()))
        for code in rule_names():
            cls = RULES[code]
            scope = (
                ", ".join(cls.include) if cls.include else "all linted paths"
            )
            print(f"  {code} {cls.name}: {cls.summary}")
            print(f"    protects: {cls.guarantee}")
            print(f"    scope   : {scope}")
        return 0

    try:
        report = run_lint(args.paths or DEFAULT_PATHS, select=args.select)
    except (FileNotFoundError, KeyError) as exc:
        raise _InputError(exc.args[0] if exc.args else str(exc)) from None
    if args.lint_format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


def _cmd_request(args: argparse.Namespace) -> int:
    import json

    from .service import (
        ControlPlane,
        MigrateSession,
        PriorityChange,
        Query,
        StartSession,
        StopSession,
    )

    if args.op != "query" and not args.name:
        raise _InputError(f"--op {args.op} requires --name")
    if args.op == "start_session":
        if args.source_bw is None:
            raise _InputError("--op start_session requires --source-bw")
        req = StartSession(
            name=args.name,
            source_bw=args.source_bw,
            demand=math.inf if args.demand is None else args.demand,
            priority=1.0 if args.priority is None else args.priority,
            members=tuple(args.members),
        )
    elif args.op == "stop_session":
        req = StopSession(name=args.name)
    elif args.op == "migrate_session":
        if not (args.add_members or args.remove_members
                or args.source_bw is not None):
            raise _InputError(
                "--op migrate_session requires --add, --remove "
                "and/or --source-bw"
            )
        req = MigrateSession(
            name=args.name,
            add=tuple(args.add_members),
            remove=tuple(args.remove_members),
            source_bw=args.source_bw,
        )
    elif args.op == "priority_change":
        if args.priority is None:
            raise _InputError("--op priority_change requires --priority")
        req = PriorityChange(name=args.name, priority=args.priority)
    else:
        req = Query(name=args.name)

    try:
        plane = ControlPlane.recover(args.ledger, verify=not args.no_verify)
    except (OSError, ValueError, RuntimeError) as exc:
        raise _InputError(str(exc)) from None
    resp = plane.submit(req)
    if plane.ledger is not None:
        plane.ledger.close()
    if resp.status == "error":
        print(f"error: {resp.error}", file=sys.stderr)
        return 1
    print(
        f"{resp.op} {resp.name!r}: {resp.status}  bound={resp.bound:.3f}  "
        f"seq={resp.seq}  ({resp.latency_ms:.3f} ms)"
    )
    if resp.state is not None:
        print(json.dumps(resp.state, indent=2, sort_keys=True))
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": _cmd_table1,
    "figure7": _cmd_figure7,
    "figure19": _cmd_figure19,
    "worstcase": _cmd_worstcase,
    "ablations": _cmd_ablations,
    "demo": _cmd_demo,
    "solve": _cmd_solve,
    "runtime": _cmd_runtime,
    "sessions": _cmd_sessions,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
    "request": _cmd_request,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "full", False):
            os.environ["REPRO_FULL"] = "1"
        return _COMMANDS[args.command](args)
    except _InputError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
