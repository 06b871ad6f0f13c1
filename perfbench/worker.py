"""Child process of the benchmark: runs one workload once, prints JSON.

``run.py`` starts this file in a fresh interpreter per run so that the
peak RSS it reports belongs to that run alone.  The last line of
standard output is the result.  ``--role server`` is the serve-tcp
server process instead (see ``serve.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("workload", "server"), default="workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ledger")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import numpy
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import serve
    import workloads
    from tracing import Tracer

    if args.role == "server":
        serve.server_main(args.ledger, args.spans, args.smoke)
        return 0

    tracer = Tracer() if args.traced else None
    if args.workload in workloads.RUNTIME:
        result = workloads.run_runtime(
            args.workload, args.seed, args.seconds, tracer, args.smoke
        )
    elif args.workload == "scale-100k":
        result = workloads.run_scale(args.seconds, tracer, args.smoke)
    elif args.workload == "serve-tcp":
        result = serve.run_serve(
            args.seed, args.seconds, args.traced, args.smoke, ROOT
        )
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result["e2e"].setdefault("peak_rss_mb", workloads.peak_rss_mb())
    if tracer is not None:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{args.workload}-s{args.seed}.json")
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
