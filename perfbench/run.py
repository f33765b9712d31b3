"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` the last line
of standard output is the end-to-end result; with ``--trace 1`` it is
the per-layer result of a traced run.  The line before it is the full
record: host, code version, seeds, workload sizes and sample counts.
Both are also written under ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: the seed used unless one is given, and one kept back for confirming
#: a claimed gain on inputs it was not tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 7



def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def main(argv=None) -> int:
    args = _parse(argv)
    from host import cap_threads, describe_host

    cap_threads()
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    _import_package()
    from cases import WORKLOADS, Checks, run_traced, run_untraced

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}"
        )
    case = WORKLOADS[args.workload]()
    checks = Checks()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "seconds": args.seconds,
        "trace": args.trace,
        "host": describe_host(ROOT),
        "started_unix": time.time(),
    }
    tracer = None
    try:
        t0 = time.perf_counter()
        record["sizes"] = case.make_inputs(args.seed, OUT)
        record["input_build_s"] = time.perf_counter() - t0
        if args.trace:
            metrics, detail, tracer = run_traced(case, args.seconds, checks)
        else:
            metrics, detail = run_untraced(case, args.seconds, checks)
    finally:
        case.cleanup()
    if metrics is None:
        checks.record(False, "no request completed")
        metrics = {}
    for metric in declared:
        if metric["name"] not in metrics:
            checks.record(False, f"metric {metric['name']} was not measured")
    record["detail"] = detail
    record["errors"] = checks.errors
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    record["result"] = result
    _write_out(args, record, tracer)
    for error in checks.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


def _write_out(args, record, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )
    if tracer is not None:
        spans = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
            }
            for s in tracer.spans
        ]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")


if __name__ == "__main__":
    sys.exit(main())
