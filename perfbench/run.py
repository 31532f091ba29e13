#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload inject_8B --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench/` (which pulls in the
simulator sources from the repository root) into `.bench_build/`, or into
the directory named by CARGO_TARGET_DIR. It prints a table of every metric
with its unit and better-direction, then, as the last line, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Traced runs also write their spans to
`<build dir>/traces/<workload>-seed<seed>.json`. See perfbench/NOTES.md.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomisation, so each run of one binary lays out its code and heap
    alike; layout otherwise moves host throughput from run to run (see
    NOTES.md). Best effort: where the kernel refuses, the run goes ahead
    randomised."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies the ops per round (short test runs)")
    args = ap.parse_args()

    bench = spec()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(bdir, "traces", f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    report = json.loads(proc.stdout)

    emitted = report["per_layer" if args.trace else "end_to_end"]
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in emitted]
    if missing:
        fail("metrics missing from the report: " + ", ".join(missing))

    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"rounds {report['rounds']}  host {report['host_s']:.2f} s")
    print(f"correct {report['correct']}  attempted {report['attempted']}  "
          f"failed {report['failed']}  error_rate {report['error_rate']:.6g}")
    for err in report["errors"]:
        print(f"  error: {err}")
    host = report["host"]
    print(f"host speed {host['speed_median']:.3f} of nominal "
          f"({host['speed_min']:.3f}..{host['speed_max']:.3f}); unscaled: "
          f"ops_per_host_s {host['ops_per_host_s_unscaled']:.6g}, "
          f"setup_s {host['setup_s_unscaled']:.6g}")
    det = report["determinism"]
    print("determinism " + " ".join(f"{k}={v}" for k, v in det.items()))
    for m in report["model_by_size"]:
        print(f"model {m['bytes']:>6d} B  sim {m['sim_ns']:.2f} ns  model {m['model_ns']:.2f} ns")
    for section in ("end_to_end", "per_layer"):
        for name, m in report.get(section, {}).items():
            print(f"  {name:34s} {m['value']:16.6f} {m['unit']:8s} {m['better']}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": emitted[m["name"]]["value"],
                                "unit": emitted[m["name"]]["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
