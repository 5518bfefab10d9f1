"""One benchmark process: set up a workload, then run and check passes.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass \
        --trace 0|1 --out-dir DIR [--until T]

A pass runs every operation of the workload once, one at a time, each
only after the last returned (a closed loop with one client).  An
operation that raises is recorded and the pass carries on.  Before each
pass the package's memos (``mn_character``, ``partitions``) are cleared
through their ``cache_clear``, and every operation builds its groups
afresh, so each pass pays the character-table cost a fresh
``cayley-theta`` invocation pays.  Passes repeat while the next one is
expected to finish by ``--until`` (a ``time.monotonic()`` value); there
is always one.  With ``--mode setup`` the process stops where the first
operation would start.  The last line of standard output is one JSON
record; ``first_op_t`` is ``time.monotonic()`` (system-wide on Linux) at
the start of the first timed operation, so the parent can measure
set-up from its own clock, and ``kernel_s`` is the calibration kernel's
time just after it (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import hostspeed
import workloads  # imports numpy and the package: part of set-up
from cayley_theta import characters, groups

MEMOS = (characters.mn_character, groups.partitions)


def run_pass(ops, tracer, out_dir):
    """Run every operation once.  Each record has the measured
    ``seconds`` and ``cpu_seconds`` and both at the nominal host speed
    (``scaled_*``), from the calibration kernel timed before, during and
    after the operation.  A traced pass samples only before and after,
    so that the kernel's time stays out of the layers' spans."""
    tables = {}
    records = []
    outputs = []
    kernel_before = hostspeed.kernel_s()
    for op_id, op in enumerate(ops):
        sampler = hostspeed.Sampler()
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                with sampler:
                    output = workloads.run_op(op, tables, out_dir)
            else:
                output = tracer.op(op_id, lambda: workloads.run_op(
                    op, tables, out_dir))
            error = None
        except Exception as exc:
            output = None
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        seconds = time.perf_counter() - start - sampler.seconds
        cpu_seconds = time.process_time() - cpu0 - sampler.cpu_seconds
        kernel_after = hostspeed.kernel_s()
        kernel_wall, kernel_cpu = zip(kernel_before, *sampler.samples,
                                      kernel_after)
        records.append({
            "op": op.label, "seconds": seconds, "cpu_seconds": cpu_seconds,
            "scaled_seconds": hostspeed.scale(seconds, kernel_wall),
            "scaled_cpu_seconds": hostspeed.scale(cpu_seconds, kernel_cpu),
            "kernel_s": statistics.fmean(kernel_wall), "error": error})
        outputs.append(output)
        kernel_before = kernel_after
    return records, outputs, {
        "wall_s": sum(r["scaled_seconds"] for r in records),
        "cpu_s": sum(r["scaled_cpu_seconds"] for r in records),
        "measured_wall_s": sum(r["seconds"] for r in records),
        "measured_cpu_s": sum(r["cpu_seconds"] for r in records)}


def check_pass(ops, records, outputs, seed):
    import checks  # imports scipy lazily; after the peak-RSS reading

    for op, record, output in zip(ops, records, outputs):
        if record["error"] is not None:
            record["status"], record["detail"] = "failed", record["error"]
            continue
        try:
            record["status"], record["detail"] = checks.check_op(
                op, output, seed)
        except Exception:
            record["status"] = "wrong"
            record["detail"] = "check raised: " + \
                traceback.format_exc(limit=3)[-300:]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--until", type=float, default=0.0)
    args = parser.parse_args(argv)

    ops = workloads.make_ops(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    first_op_t = time.monotonic()
    kernel_s, _ = hostspeed.setup_kernel_s()
    if args.mode == "setup":
        print(json.dumps({"first_op_t": first_op_t, "kernel_s": kernel_s}))
        return 0

    passes = []
    peak_rss_mb = None
    longest = 0.0
    while True:
        started = time.monotonic()
        for memo in MEMOS:
            memo.cache_clear()
        records, outputs, totals = run_pass(ops, tracer, args.out_dir)
        if peak_rss_mb is None:
            # read before any check runs (the checks import scipy)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            totals["layers"] = tracer.layer_metrics(
                totals["measured_wall_s"])
            tracer.dump(os.path.join(
                args.out_dir, f"spans_{args.workload}_seed{args.seed}.json"))
        check_pass(ops, records, outputs, args.seed)
        del outputs
        passes.append({"ops": records, **totals})
        longest = max(longest, time.monotonic() - started)
        if tracer is not None or time.monotonic() + longest > args.until:
            break
    print(json.dumps({"first_op_t": first_op_t, "kernel_s": kernel_s,
                      "peak_rss_mb": peak_rss_mb, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
