"""Benchmark of the cayley-theta package.

    python3 perfbench/run.py --workload efp_grid --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Passes run in fresh single-threaded processes (``worker.py``)
that clear the package's memos before each pass, so every pass pays the
character-table cost a fresh ``cayley-theta`` invocation pays.

``--trace 0`` runs a few set-up-only processes, then one process that
runs whole passes while the next one is expected to end within
``--seconds`` (always at least one).  Each time metric is scaled to the
nominal host speed (``hostspeed.py``) and is the median over the passes
(set-up: over the processes).  ``--trace 1`` runs one plain and one
traced pass, each in its own process, and reports the per-layer metrics
of the traced one.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it list every metric with its unit.  A full report,
stamped with the code version, seed and machine, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("efp_grid", "abelian_wide", "cayley_graph")
SETUP_PROBES = 9
DEADLINE_S = 170      # stop a run well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "slowest_op_s": "s",
              "fail_ratio": "ratio", "wrong_answers": "count",
              "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode, trace, deadline, until=0.0):
    """Run one worker process to completion; return its record with
    ``setup_s`` (spawn to first operation) added.  The worker repeats
    passes while the next is expected to end by ``until``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--trace", str(trace), "--out-dir", OUT_DIR,
           "--until", repr(until)]
    kernel_before, _ = hostspeed.setup_kernel_s()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S} s run "
                         "deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["measured_setup_s"] = record["first_op_t"] - started
    record["setup_s"] = hostspeed.scale(record["measured_setup_s"],
                                        [kernel_before, record["kernel_s"]])
    return record


def pass_metrics(record):
    return {"wall_s": record["wall_s"], "cpu_s": record["cpu_s"],
            "slowest_op_s": max(op["scaled_seconds"]
                                for op in record["ops"])}


def _code_version():
    """Git commit when available, and a digest of the package sources
    (the benchmark may run in a checkout that is not a git repository)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cayley_theta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return commit, digest.hexdigest()


def stamp(args):
    import numpy
    commit, source_sha256 = _code_version()
    return {"git_commit": commit, "source_sha256": source_sha256,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "child_threads": {var: "1" for var in THREAD_VARS},
            "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def measure(args, start, deadline):
    """--trace 0: set-up probes, then one process that runs passes
    while the next is expected to end within --seconds."""
    probes = [spawn(args, "setup", 0, deadline)
              for _ in range(SETUP_PROBES)]
    run = spawn(args, "pass", 0, deadline, until=start + args.seconds)
    return probes + [run], run


def summarize(processes, passes):
    """End-to-end metrics: each time is the median over ``passes`` (set-up
    over ``processes``); failures over every pass."""
    per_pass = [pass_metrics(p) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in processes)
    metrics["peak_rss_mb"] = statistics.median(
        r["peak_rss_mb"] for r in processes if "peak_rss_mb" in r)
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op["status"] != "ok" for op in ops)
    wrong = sum(op["status"] == "wrong" for op in ops)
    metrics["fail_ratio"] = failed / attempted
    metrics["wrong_answers"] = wrong
    return metrics, attempted, failed, wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "cayley_theta")):
        print(f"no package sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            plain = spawn(args, "pass", 0, deadline)
            traced = spawn(args, "pass", 1, deadline)
            processes = [plain, traced]
            passes = plain["passes"] + traced["passes"]
        else:
            processes, run = measure(args, start, deadline)
            passes = run["passes"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics, attempted, failed, wrong = summarize(processes, passes)
    if args.trace:
        plain_pass, traced_pass = plain["passes"][0], traced["passes"][0]
        reported = dict(traced_pass["layers"])
        reported["trace.overhead_s"] = {
            "value": traced_pass["wall_s"] - plain_pass["wall_s"],
            "unit": "s"}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()}

    report = {"stamp": stamp(args), "metrics": reported,
              "end_to_end": metrics,
              "passes": [{k: v for k, v in p.items() if k != "layers"}
                         for p in passes],
              "setup_s": [r["setup_s"] for r in processes],
              "measured_setup_s": [r["measured_setup_s"]
                                   for r in processes]}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(report, fh, indent=1)

    not_ok = collections.Counter(
        (op["status"], op["op"], op["detail"])
        for p in passes for op in p["ops"] if op["status"] != "ok")
    for (status, label, detail), times in sorted(not_ok.items()):
        print(f"{status} in {times} of {len(passes)} passes: {label}: "
              f"{detail}")
    for metric, entry in reported.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        layers = sum(entry["value"] for name, entry in reported.items()
                     if entry["unit"] == "s" and not name.startswith("trace."))
        print(f"traced pass: measured {traced_pass['measured_wall_s']:.3f} s"
              f" = layer self times {layers:.3f} s + trace.unattributed_s "
              f"{reported['trace.unattributed_s']['value']:.3f} s; at the "
              f"nominal host speed {traced_pass['wall_s']:.3f} s, against "
              f"{plain_pass['wall_s']:.3f} s untraced")
    else:
        median = statistics.median
        kernel_ms = median(op["kernel_s"] for p in passes
                           for op in p["ops"]) * 1e3
        print(f"{len(passes)} passes; measured medians: wall "
              f"{median(p['measured_wall_s'] for p in passes):.6g} s, cpu "
              f"{median(p['measured_cpu_s'] for p in passes):.6g} s, set-up "
              f"{median(r['measured_setup_s'] for r in processes):.6g} s; "
              f"calibration kernel {kernel_ms:.2f} ms (nominal "
              f"{hostspeed.NOMINAL_S * 1e3:.2f} ms)")
    result = {name: reported[name] for name in reported
              if name not in ("fail_ratio", "wrong_answers")}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
