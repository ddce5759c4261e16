#!/usr/bin/env python3
"""Benchmark of the bsea2 workbench: four workloads, end to end and by layer.

    python3 perfbench/run.py [--seed N] [--trace 1]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload every workload runs in turn and a table is printed.
Each workload runs in a fresh single-threaded process (worker.py) that
imports the program from this checkout's src/. The last line of standard
output is one JSON object; with --trace 0 its metrics are the end-to-end
ones, with --trace 1 the per-layer ones from a traced run. See README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mini_attack", "full_stage", "all256_mini", "passrates")
DEFAULT_SECONDS = 15
SETUP_PROBES = 6          # set-up-only processes besides the measured one
DEADLINE_S = 170          # a run must end within 180 s

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "attack.run_plan.s": "s",
    "attack.run_plan.self_s": "s",
    "attack.beam.candidates": "count",
    "attack.score_stage.s": "s",
    "attack.score_stage.calls": "count",
    "attack.run_parallel_instances.s": "s",
    "attack.instances.attempted": "count",
    "attack.register_rows.s": "s",
    "attack.register_rows.calls": "count",
    "kernels.fwht_inplace.s": "s",
    "kernels.fwht_inplace.calls": "count",
    "kernels.fwht_inplace.points": "points",
    "kernels.lfsr_sequence.s": "s",
    "kernels.lfsr_sequence.calls": "count",
    "kernels.lfsr_sequence.bits": "bits",
    "cipher.keystream.s": "s",
    "cipher.keystream.bits": "bits",
    "cipher.combine_outputs.s": "s",
    "cipher.combine_outputs.calls": "count",
    "classifier.partition_keys.s": "s",
    "classifier.plan_attack.s": "s",
    "classifier.plan_attack.calls": "count",
    "randomness.fips_battery.s": "s",
    "randomness.fips_battery.calls": "count",
    "randomness.batch_pass_rates.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
}


class BenchError(Exception):
    pass


def spawn(args, deadline, cpu=None):
    """Run worker.py with args, on one CPU if given; return its JSON line."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PERFBENCH_SPAWNED_AT=repr(time.monotonic()))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next worker process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=timeout,
            preexec_fn=None if cpu is None else (
                lambda: os.sched_setaffinity(0, {cpu})))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """One benchmark run of one workload: (result line, worker figures)."""
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    setups = []
    if not trace:
        # the probes take turns on the CPUs, as the operations do
        cpus = sorted(os.sched_getaffinity(0))
        for i in range(SETUP_PROBES):
            setups.append(spawn(common + ["--setup-only"], deadline,
                                cpus[i % len(cpus)])["setup_s"])
    raw = spawn(common + ["--trace", str(trace)], deadline)
    setups.append(raw["setup_s"])
    figures = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(raw["op_times"]),
        "work_per_s": sum(raw["units"]) / sum(raw["op_times"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if trace:
        units = PER_LAYER
        values = {m: raw["layers"].get(m, 0) for m in PER_LAYER}
    else:
        units = END_TO_END
        values = figures
    line = {
        "correct": raw["unexpected"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m: {"value": values[m], "unit": units[m]}
                    for m in units},
    }
    return line, dict(raw, **figures)


def describe(name, line, raw):
    """Human-readable lines for one workload run."""
    out = [f"{name}: {line['attempted']} ops attempted, {line['failed']} "
           f"failed; kernel path: {raw['kernel_path']}",
           f"  setup_s {raw['setup_s']:.4f} s   "
           f"op_s.p50 {raw['op_s.p50']:.4f} s   "
           f"work_per_s {raw['work_per_s']:.6g} 1/s   "
           f"peak_rss_mb {raw['peak_rss_mb']:.1f} MB"]
    for failure in raw["failures"]:
        out.append(f"  FAILED {failure}")
    if "layers" in raw:
        out.append(f"  traced run; spans in {raw['trace_file']}")
        for metric, unit in PER_LAYER.items():
            value = raw["layers"].get(metric)
            if value:
                out.append(f"  {metric:<34} {value:.6g} {unit}")
    return "\n".join(out)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark of the bsea2 workbench (see README.md)")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                    help="nominal length of the timed part of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bsea2" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/bsea2", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else WORKLOADS
    lines = {}
    for name in names:
        # one deadline per workload run, as each is a run of its own
        deadline = time.monotonic() + DEADLINE_S
        try:
            line, raw = run_workload(name, args.seed, args.seconds,
                                     args.trace, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(describe(name, line, raw), flush=True)
        lines[name] = line
    if args.workload:
        print(json.dumps(lines[args.workload]))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
