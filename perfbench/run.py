"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``churn-oracle``, ``livestream-online``, ``serve-tcp`` and
``scale-100k`` (see ``perfbench/README.md``).  Each run executes the
workload in a fresh child interpreter (``worker.py``) against the
checkout's own ``src/``, prints one human-readable line per metric and
an environment stamp, and ends with one JSON line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced then traced, and reports
the per-layer metrics of the traced run plus the tracing overhead (the
traced unit time against the untraced one).  ``--smoke`` shrinks every
workload to a size that runs in seconds.

Everything the benchmark writes goes under ``.perfbench/`` in the
checkout: full result records, span files, and the count fingerprints
the determinism guard compares across runs of one seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("churn-oracle", "livestream-online", "serve-tcp", "scale-100k")
#: Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources (the checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def spawn(args, traced: bool, deadline: float) -> dict:
    """Run the workload once in a fresh child; its last stdout line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if traced:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    return json.loads(lines[-1])


def guard_across_runs(key: str, digest: str, fingerprint: dict) -> bool:
    """Compare the counts with the last run of the same seed and sources."""
    path = OUT / "fingerprints" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        stored = json.loads(path.read_text())
        if stored["sources"] == digest:
            return stored["fingerprint"] == fingerprint
    path.write_text(json.dumps({"sources": digest, "fingerprint": fingerprint}))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digest = source_digest()

    try:
        runs = [spawn(args, traced=False, deadline=deadline)]
        if args.trace:
            runs.append(spawn(args, traced=True, deadline=deadline))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = runs[-1]

    checks = [c for run in runs for c in run["checks"]]
    same = all(run["fingerprint"] == runs[0]["fingerprint"] for run in runs)
    checks.append({"name": "determinism: untraced and traced runs agree",
                   "ok": same, "detail": ""})
    key = f"{args.workload}-s{args.seed}-{args.seconds:g}s" + (
        "-smoke" if args.smoke else "")
    checks.append({"name": "determinism: counts repeat across runs of the seed",
                   "ok": guard_across_runs(key, digest, runs[0]["fingerprint"]),
                   "detail": ""})
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    failed += sum(1 for c in checks[-2:] if not c["ok"])
    failed = min(failed, attempted)
    correct = failed == 0 and all(c["ok"] for c in checks)

    if args.trace:
        values = dict(final["layers"])
        values["trace.overhead_pct"] = 100.0 * (
            final["unit_wall_s"] - runs[0]["unit_wall_s"]
        ) / runs[0]["unit_wall_s"]
        values["bench.fail_frac"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        values = final["e2e"]
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }

    env = {
        "git_sha": git_sha(),
        "sources_sha256": digest,
        "python": platform.python_version(),
        "numpy": final["numpy"],
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "units": [run["units"] for run in runs],
    }
    record = {"env": env, "checks": checks, "runs": runs, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{key}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    for check in checks:
        if not check["ok"]:
            print(f"FAILED check: {check['name']} {check['detail']}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
