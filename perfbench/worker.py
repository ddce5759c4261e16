"""One workload in one fresh process; prints its raw figures as JSON.

Started by run.py, which passes the monotonic time at which it spawned
this process in PERFBENCH_SPAWNED_AT, so that set-up time covers the
interpreter's start and the imports. Run alone for debugging:

    python3 perfbench/worker.py --workload full_stage --seed 1 --seconds 5
"""
import time

STARTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def import_program():
    """Import bsea2 from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import bsea2
    if Path(bsea2.__file__).resolve().parent != SRC / "bsea2":
        raise SystemExit(f"bsea2 imported from {bsea2.__file__}, "
                         f"not from {SRC}")
    return bsea2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned_at = float(os.environ.get("PERFBENCH_SPAWNED_AT", STARTED_AT))
    import_program()
    from bsea2 import kernels
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = cls(args.seed, args.seconds, workdir=str(OUT_DIR))
    setup_s = time.monotonic() - spawned_at
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s}
    try:
        if not args.setup_only:
            result.update(measure(workload, tracer))
            result["kernel_path"] = ("compiled core" if kernels.HAVE_CORE
                                     else "NumPy/pure-Python fallback")
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def measure(workload, tracer) -> dict:
    """Time every operation, then check every output."""
    from workloads import KNOWN_FAULT
    times, outputs = [], []
    # Operations take turns on the CPUs this process may use. On a shared
    # host each CPU is slowed by other tenants at its own times; taking
    # turns keeps one CPU's slow spell from setting the whole run's figure.
    cpus = sorted(os.sched_getaffinity(0))
    for i, op in enumerate(workload.ops):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:
            out = None
            traceback.print_exc()
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    os.sched_setaffinity(0, cpus)
    if tracer is not None:
        tracer.uninstall()
    units, failures = [], []
    for i, (op, out) in enumerate(zip(workload.ops, outputs)):
        reason, done = check(workload, op, out)
        if reason:
            failures.append(f"op {i}: {reason}")
        units.append(done)
    figures = {"op_times": times, "units": units,
               "attempted": len(times), "failed": len(failures),
               "unexpected": sum(KNOWN_FAULT not in f for f in failures),
               "failures": failures}
    if tracer is not None:
        figures["layers"] = tracer.totals()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
        tracer.write(path, {"op_times": times})
        figures["trace_file"] = str(path.relative_to(ROOT))
    return figures


def check(workload, op, out):
    """(failure reason or None, work units done) for one operation."""
    if out is None:
        return "raised", 0
    try:
        return workload.check(op, out), workload.units(op, out)
    except Exception as exc:
        traceback.print_exc()
        return f"check raised {exc!r}", 0


if __name__ == "__main__":
    sys.exit(main())
