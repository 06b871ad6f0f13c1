"""The serve-tcp workload: a control plane over TCP, driven open-loop.

Two processes.  The *server* (``worker.py --role server``) builds the
shared platform (the same for every seed), journals to a ledger file and serves a
default :class:`~repro.service.plane.ControlPlane` through
:class:`~repro.service.server.ControlPlaneServer` on loopback until its
standard input says stop; it then prints one JSON summary line.  The
*client* (the workload child) starts the sessions, then sends a seeded
request mix over one pipelined connection at a fixed offered rate.
Responses come back in FIFO order, so each is matched to its request by
position; latency is measured from the request's *due* time.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.runtime.scenarios import SteadyChurn
from repro.service import ControlPlane, ControlPlaneServer
from repro.service.ledger import ReservationLedger
from repro.service.requests import (
    MigrateSession,
    PriorityChange,
    Query,
    StartSession,
    StopSession,
    decode_response,
    encode_request,
)
from repro.sessions import make_fleet

from tracing import (
    TracedBroker,
    TracedLedger,
    TracedPlanCache,
    TracedPlane,
    Tracer,
)
from workloads import (
    CAL_REF_S,
    calibrate,
    check,
    layer_metrics,
    median,
    peak_rss_mb,
    percentile,
    ratio,
)


@dataclass(frozen=True)
class ServeConfig:
    peers: int  #: base peers of the SteadyChurn platform
    rate: float  #: offered load, requests (wire lines) per second
    setups: int = 5  #: server starts per run (median reported)


SESSIONS = 4
OVERLAP = 0.1


SERVE = ServeConfig(peers=4 * 40, rate=125.0)
SERVE_SMOKE = ServeConfig(peers=4 * 15, rate=40.0, setups=1)

#: Statuses a correct answer may carry, per request op.  Admission
#: rejections by policy are correct answers.
EXPECTED = {
    "start_session": ("admitted", "degraded", "rejected"),
    "stop_session": ("stopped",),
    "migrate_session": ("applied",),
    "priority_change": ("applied",),
    "query": ("ok",),
}

PRIORITIES = (0.5, 1.0, 2.0, 4.0)

MATCH_CHECK = "every response decodes and matches its request"

#: Server-side speed sampling: a kernel slice every SAMPLE_EVERY_S.
SAMPLE_EVERY_S = 0.1
SAMPLE_ITERATIONS = 1_000


#: The fleet is the same for every seed; the seed drives the request mix.
#: Fleets of other seeds differ in session sizes (37-69 members), which set
#: most of the ten-seed spread (IQR / median) of node_slots_per_s (0.109
#: against 0.047 with one fleet) and of req_p90_ms (0.119 against 0.052).
FLEET_SEED = 1


def make_serve_fleet(cfg: ServeConfig):
    return make_fleet(
        SteadyChurn(size=cfg.peers), SESSIONS, FLEET_SEED, overlap=OVERLAP
    )


def starts(fleet) -> list:
    return [
        StartSession(
            name=sp.name,
            source_bw=sp.source_bw,
            demand=sp.demand,
            priority=sp.priority,
            members=sp.members,
        )
        for sp in fleet.sessions
    ]


def build_schedule(fleet, seed: int, count: int) -> list[tuple]:
    """``count`` request batches: ~50% paired migrations, 20% priority
    changes, 25% queries, 5% stop/restart.  Membership is tracked so
    every request is valid when it arrives."""
    rng = random.Random(f"{seed}:perfbench:serve-tcp")
    on_platform = fleet.platform.nodes
    spec = {sp.name: sp for sp in fleet.sessions}
    members = {sp.name: list(sp.members) for sp in fleet.sessions}
    priority = {sp.name: sp.priority for sp in fleet.sessions}
    names = sorted(spec)
    batches: list[tuple] = []
    while len(batches) < count:
        u = rng.random()
        if u < 0.50:
            src, dst = rng.sample(names, 2)
            held = set(members[dst])
            pool = [n for n in members[src] if n in on_platform and n not in held]
            if len(pool) < 8:
                continue
            moved = tuple(sorted(rng.sample(pool, rng.randint(1, 3))))
            members[src] = [n for n in members[src] if n not in moved]
            members[dst].extend(moved)
            batches.append(
                (
                    MigrateSession(name=src, remove=moved),
                    MigrateSession(name=dst, add=moved),
                )
            )
        elif u < 0.70:
            name = rng.choice(names)
            priority[name] = rng.choice(PRIORITIES)
            batches.append((PriorityChange(name=name, priority=priority[name]),))
        elif u < 0.95:
            name = rng.choice(names) if rng.random() < 0.5 else None
            batches.append((Query(name=name),))
        else:
            name = rng.choice(names)
            batches.append(
                (
                    StopSession(name=name),
                    StartSession(
                        name=name,
                        source_bw=spec[name].source_bw,
                        demand=spec[name].demand,
                        priority=priority[name],
                        members=tuple(members[name]),
                    ),
                )
            )
    return batches


def encode_line(batch: tuple) -> bytes:
    return (json.dumps([encode_request(r) for r in batch]) + "\n").encode()


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def server_main(ledger_path: str, spans_path: Optional[str], smoke: bool) -> None:
    asyncio.run(_serve(ledger_path, spans_path, smoke))


async def _serve(ledger_path: str, spans_path: Optional[str], smoke: bool) -> None:
    cfg = SERVE_SMOKE if smoke else SERVE
    loop = asyncio.get_running_loop()
    # The client times set-up from its "start": interpreter start-up and
    # imports, which swing 0.75-1.3 s with the host's state, stay out.
    print(json.dumps({"ready": True}), flush=True)
    await loop.run_in_executor(None, sys.stdin.readline)
    fleet = make_serve_fleet(cfg)
    tracer = Tracer() if spans_path else None
    if tracer is None:
        ledger = ReservationLedger(ledger_path)
        plane = ControlPlane(fleet.platform, ledger=ledger)
        handed = plane
    else:
        ledger = TracedLedger(ledger_path, tracer)
        plane = ControlPlane(
            fleet.platform, ledger=ledger, cache=TracedPlanCache(tracer)
        )
        plane.broker = TracedBroker(plane.broker, tracer)
        handed = TracedPlane(plane, tracer)
    server = ControlPlaneServer(handed)
    await server.start()
    samples: list[tuple[float, float]] = []
    sampler = asyncio.create_task(_sample_speed(samples))
    print(json.dumps({"port": server.port}), flush=True)
    # Serve until the client says stop (or its end of the pipe closes);
    # "collect" runs a full garbage collection first, so every timed
    # stream starts from the same collector state.
    while (await loop.run_in_executor(None, sys.stdin.readline)).strip() == "collect":
        gc.collect()
        print(json.dumps({"collected": True}), flush=True)
    sampler.cancel()
    try:
        await sampler
    except asyncio.CancelledError:
        pass
    await server.stop()
    ledger.close()
    summary = {
        "speed_samples": samples,
        "rss_mb": peak_rss_mb(),
        "stats": dataclasses.asdict(plane.stats()),
        "plan_s": math.fsum(op[2] for op in plane.plan_ops),
        "cache_hit_ratio": plane.cache.counters().hit_rate,
    }
    if tracer is not None:
        tracer.dump(spans_path)
        summary["traced"] = {
            "arbitrate_s": tracer.total("sessions.arbitrate"),
            "arbitrate_calls": tracer.count("sessions.arbitrate"),
            "ledger_append_s": tracer.total("service.ledger_append"),
            "submit_s": tracer.total("service.submit"),
            "algorithms_s": tracer.total("algorithms."),
            "self_s": tracer.self_seconds(),
        }
    print(json.dumps(summary), flush=True)


async def _sample_speed(samples: list) -> None:
    """Every 100 ms while the loop is idle, time a 1.5 ms slice of the
    calibration kernel in the server process (the host's speed drifts
    within seconds; see :func:`workloads.calibrate`)."""
    calibrate(SAMPLE_ITERATIONS)  # the kernel's first call runs cold
    while True:
        await asyncio.sleep(SAMPLE_EVERY_S)
        samples.append((time.perf_counter(), calibrate(SAMPLE_ITERATIONS)))


def speed_at(samples: list, start: float, end: float) -> float:
    """Speed factor over ``[start, end]``: the median kernel sample taken
    within a second of the interval (1.0 before the first sample)."""
    near = [c for t, c in samples if start - 1.0 <= t <= end + 1.0]
    near = near or [c for _, c in samples]
    return CAL_REF_S / median(near) if near else 1.0


class ServerProcess:
    """One server child: spawned, started, stopped, reaped."""

    def __init__(self, root: Path, seed: int, ledger: Path, spans, smoke: bool):
        cmd = [
            sys.executable, str(Path(__file__).with_name("worker.py")),
            "--role", "server", "--workload", "serve-tcp",
            "--seed", str(seed), "--ledger", str(ledger),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if smoke:
            cmd.append("--smoke")
        self.proc = subprocess.Popen(
            cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self._read("ready")

    def _read(self, key: str):
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"server exited before sending {key!r}")
        return json.loads(line)[key]

    def start(self) -> int:
        """Have the (imported) server build its plane and listen."""
        self.proc.stdin.write("start\n")
        self.proc.stdin.flush()
        return self._read("port")

    def collect(self) -> None:
        """Full garbage collection in the server before a timed window."""
        self.proc.stdin.write("collect\n")
        self.proc.stdin.flush()
        self.proc.stdout.readline()

    def stop(self, timeout: float = 60.0) -> dict:
        """Ask the server to stop; return its summary."""
        out, _ = self.proc.communicate("stop\n", timeout=timeout)
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _roundtrip(reader, writer, batch: tuple) -> list:
    writer.write(encode_line(batch))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


async def _bye(writer) -> None:
    writer.write(b'{"op":"bye"}\n')
    await writer.drain()
    writer.close()
    await writer.wait_closed()


async def _stream(reader, writer, lines: list[bytes], rate: float) -> tuple:
    """Open loop: line ``i`` is due at ``t0 + i / rate``, sent when due
    whatever the backlog; answers are read concurrently, in order."""
    n = len(lines)
    t0 = time.perf_counter() + 0.01
    due = [t0 + i / rate for i in range(n)]
    sent = [0.0] * n
    arrived: list[Optional[float]] = [None] * n
    answers: list[Optional[bytes]] = [None] * n

    async def send():
        for i, line in enumerate(lines):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[i] = time.perf_counter()
            writer.write(line)
            await writer.drain()

    async def receive():
        for i in range(n):
            line = await reader.readline()
            if not line:
                return
            arrived[i] = time.perf_counter()
            answers[i] = line

    try:
        await asyncio.wait_for(
            asyncio.gather(send(), receive()), timeout=n / rate * 3 + 30
        )
    except (asyncio.TimeoutError, ConnectionError):
        pass
    wall = max((a for a in arrived if a is not None), default=t0) - t0
    return due, sent, arrived, answers, wall


def _matches(batch: tuple, payload) -> bool:
    if not isinstance(payload, list) or len(payload) != len(batch):
        return False
    for req, item in zip(batch, payload):
        resp = decode_response(item)
        if resp.op != req.op or resp.status not in EXPECTED[req.op]:
            return False
        if getattr(req, "name", None) and resp.name != req.name:
            return False
    return True


def run_serve(
    seed: int, seconds: float, traced: bool, smoke: bool, root: Path
) -> dict:
    return asyncio.run(_client(seed, seconds, traced, smoke, root))


async def _client(
    seed: int, seconds: float, traced: bool, smoke: bool, root: Path
) -> dict:
    cfg = SERVE_SMOKE if smoke else SERVE
    count = max(1, round(cfg.rate * seconds))
    schedule = build_schedule(make_serve_fleet(cfg), seed, count)
    lines = [encode_line(batch) for batch in schedule]
    work = root / ".perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"serve-tcp-s{seed}-p{os.getpid()}"
    spans = root / ".perfbench" / "traces" / f"{tag}-server.json" if traced else None
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
    checks: list = []
    setups: list[float] = []
    setup_speeds: list[float] = []
    server = None
    ledger = work / f"{tag}.jsonl"
    calibrate()  # the kernel's first call runs cold
    try:
        for i in range(cfg.setups):
            ledger.unlink(missing_ok=True)
            server = ServerProcess(root, seed, ledger, spans, smoke)
            before = calibrate()
            started = time.perf_counter()
            fleet = make_serve_fleet(cfg)
            port = server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=2**22
            )
            initial = [
                await _roundtrip(reader, writer, (req,)) for req in starts(fleet)
            ]
            setups.append(time.perf_counter() - started)
            setup_speeds.append(2.0 * CAL_REF_S / (before + calibrate()))
            admitted = all(
                _matches((req,), ans) for req, ans in zip(starts(fleet), initial)
            )
            if i + 1 < cfg.setups:
                await _bye(writer)
                server.stop()
                server = None
        check(checks, "initial sessions admitted", admitted)
        server.collect()
        due, sent, arrived, answers, wall = await _stream(
            reader, writer, lines, cfg.rate
        )
        await _bye(writer)
        summary = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    # ---- output checks, outside the timed window ---------------------
    failed = 0
    samples = summary["speed_samples"]
    # Per answered request: op, latency and server time, raw and scaled
    # by the server's speed around it (end-to-end metrics use scaled).
    per_request, latency_ms, server_ms, fractions = [], [], [], []
    for batch, ans, t_due, t_arr in zip(schedule, answers, due, arrived):
        payload = json.loads(ans) if ans is not None else None
        if payload is None or not _matches(batch, payload):
            failed += 1
            continue
        speed = speed_at(samples, t_due, t_arr)
        raw = (t_arr - t_due) * 1000.0
        busy = math.fsum(item["latency_ms"] for item in payload)
        per_request.append((batch[0].op, raw, busy))
        latency_ms.append(raw * speed)
        server_ms.append(busy * speed)
        if batch[0].op == "query" and batch[0].name is None:
            sessions = payload[0]["state"]["sessions"].values()
            fractions.append(
                min(ratio(sess["plan_rate"], sess["bound"]) for sess in sessions)
            )
    check(checks, MATCH_CHECK, failed == 0, f"{failed} of {len(schedule)} failed")

    records = ReservationLedger.read(str(ledger))
    stream_records = records[1 + len(initial):]
    header_bytes = len(json.dumps(records[0], separators=(",", ":"))) + 1
    ledger_bytes = ledger.stat().st_size - header_bytes
    try:
        replayed = ControlPlane.recover(
            str(ledger), verify=True, resume_appending=False
        )
        replay_ok = True
        detail = ""
    except (RuntimeError, ValueError) as exc:
        replayed, replay_ok, detail = None, False, str(exc)
    check(checks, "journal replays bit-identically", replay_ok, detail)
    stats = summary["stats"]
    counted = ("builds", "repairs", "fallbacks", "rearbitrations",
               "arb_hits", "arb_misses")
    if replayed is not None:
        again = dataclasses.asdict(replayed.stats())
        same = all(again[k] == stats[k] for k in counted)
        check(checks, "determinism: replay repeats the live counts", same,
              "" if same else repr({k: (stats[k], again[k]) for k in counted}))

    reserved = sum(
        len(grants) for rec in stream_records for grants in rec["grants"].values()
    )
    stream_busy_s = math.fsum(server_ms) / 1000.0
    optimality = math.fsum(fractions) / len(fractions) if fractions else 0.0
    e2e = {
        "setup_s": median([t * f for t, f in zip(setups, setup_speeds)]),
        "node_slots_per_s": ratio(reserved, stream_busy_s),
        "optimality": optimality,
        "req_p50_ms": percentile(latency_ms, 0.50),
        "req_p90_ms": percentile(latency_ms, 0.90),
        "peak_rss_mb": summary["rss_mb"],
    }
    batches = stats["batches"]
    fingerprint = {
        "planning.builds": stats["builds"],
        "planning.repairs": stats["repairs"],
        "planning.fallbacks": stats["fallbacks"],
        "sessions.arbitrate_calls": stats["arb_misses"],
        "service.ledger_bytes_per_batch": ledger_bytes / batches,
        "optimality": repr(optimality),
    }
    layers = None
    if traced:
        t = summary["traced"]
        check(checks, "broker calls equal arbitration memo misses",
              t["arbitrate_calls"] == stats["arb_misses"])
        layers = layer_metrics(
            t["self_s"],
            {
                "planning.busy_s": summary["plan_s"],
                "planning.builds": stats["builds"],
                "planning.repairs": stats["repairs"],
                "planning.fallbacks": stats["fallbacks"],
                "planning.repair_ratio": ratio(
                    stats["repairs"], stats["repairs"] + stats["fallbacks"]
                ),
                "planning.cache_hit_ratio": summary["cache_hit_ratio"],
                "sessions.arbitrate_s": t["arbitrate_s"],
                "sessions.arbitrate_calls": t["arbitrate_calls"],
                "service.arb_hit_ratio": ratio(
                    stats["arb_hits"], stats["arb_hits"] + stats["arb_misses"]
                ),
                "service.submit_s": t["submit_s"],
                "service.busy_frac": ratio(t["submit_s"], wall),
                "service.ledger_append_s": t["ledger_append_s"],
                "service.ledger_bytes_per_batch": ledger_bytes / batches,
                "service.wire_ms": median([raw - busy for _, raw, busy in per_request]),
                "client.req_p99_ms": percentile(latency_ms, 0.99),
                "client.late_ms": percentile(
                    [(s - d) * 1000.0 for s, d in zip(sent, due)], 0.99
                ),
                "algorithms.plan_s": t["algorithms_s"],
            },
        )
    ledger.unlink(missing_ok=True)
    # A failed check other than the per-response one fails the run.
    failed += sum(1 for c in checks if not c["ok"] and c["name"] != MATCH_CHECK)
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": len(schedule),
        "failed": min(failed, len(schedule)),
        "checks": checks,
        "fingerprint": fingerprint,
        "unit_wall_s": percentile(latency_ms, 0.50) / 1000.0,
        "units": len(schedule),
        "raw": {"setup_s": setups,
                "setup_speeds": setup_speeds,
                "speed_samples": len(samples),
                "speed_median": CAL_REF_S / median([c for _, c in samples]),
                "per_request": per_request},
    }

