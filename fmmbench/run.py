#!/usr/bin/env python3
"""Resident FMM pipeline benchmark.

Builds the measurement driver from source (fmmbench/CMakeLists.txt, into
.bench_build/fmmbench), runs one workload, checks its outputs, and prints
the metrics named in BENCHMARK.json.

  python3 fmmbench/run.py --workload laplace-adv --seed 1 --seconds 30 --trace 0
  python3 fmmbench/run.py --workload all --seconds 30

--trace 0 prints the end-to-end metrics (counters and tracing off);
--trace 1 prints the per-layer metrics of a traced run.  The last line of
standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build logs and a readable summary go to standard error.  See README.md in
this directory for what each metric measures and which workload it serves.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "fmmbench"
DRIVER = BUILD / "fmmbench_driver"
SPEC_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ["laplace-adv", "laplace-basic", "counting-churn"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DRIVER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


# --- statistics --------------------------------------------------------------

def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First quartile, median and third quartile, as statistics.quantiles
    (exclusive method) gives them."""
    return statistics.quantiles(xs, n=4)


def iqr_share(xs):
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread the benchmark's bounds are checked on."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2


def mean_or_zero(xs):
    return statistics.fmean(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --- metrics -----------------------------------------------------------------

def end_to_end(raw):
    """End-to-end metrics of one untraced run."""
    steps_s = sum(raw["eval_s"]) + sum(raw["update_s"])
    return {
        "eval_p50_s": median(raw["eval_s"]),
        "evals_per_s": len(raw["eval_s"]) / steps_s,
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    """Per-layer metrics of one traced run.  Ratios name their base in
    README.md; kernel metrics of an edge class the workload's DAG does not
    have are 0, with kernel.<C>.edges = 0 as their base."""
    workers = raw["workers"]
    p50 = median(raw["eval_s"])
    traced = raw["traced_eval_s"]
    epochs = len(traced)
    lay = raw["layers"]
    ctr = raw["counters"]
    probes = raw["probes"]
    m = {
        "tree.build_s": lay["tree_build_s"],
        "kernel.setup_s": lay["kernel_setup_s"],
        "lists.build_s": lay["lists_build_s"],
        "dag.build_s": lay["dag_build_s"],
        "dag.edges": lay["dag_edges"],
        "engine.first_epoch_s": raw["first_epoch_s"] - p50,
        "engine.reset_s": median(raw["reset_s"]),
        "pipeline.update_s": median(raw["update_s"]) if raw["update_s"] else 0.0,
        "pipeline.dirty_leaves": mean_or_zero(raw["dirty_leaves"]),
        "pipeline.rebuild_frac": mean_or_zero(raw["rebuilt"]),
    }
    replay_busy = 0.0
    for r in raw["replay"]:
        c = r["op"].replace("->", "2")
        busy = r["us_per_edge"] * 1e-6 * r["edges"]
        replay_busy += busy
        m[f"kernel.{c}.edges"] = r["edges"]
        m[f"kernel.{c}.us_per_edge"] = r["us_per_edge"]
        m[f"kernel.{c}.busy_s"] = busy
        m[f"kernel.{c}.bytes_per_edge"] = ratio(r["total_bytes"], r["edges"])
    for k in ("pack_x_us", "unpack_x_us", "pack_m_us", "unpack_m_us"):
        m[f"kernel.{k}"] = raw[k]

    m.update({
        "sched.tasks_per_epoch": ctr["sched.tasks_run"] / epochs,
        "sched.idle_frac": ctr["idle_worker_s"] / (workers * sum(traced)),
        "lco.input_wait_p50_us": ctr["lco.input_wait_p50_us"],
        "gas.allocs_steady": sum(raw["gas_allocs"]),
        "runtime.task_overhead_ns": probes["task_overhead_ns"],
        "runtime.metg_us": probes["metg_us"],
        "comm.wire_mb_per_epoch": median(raw["bytes"]) / 1e6,
        "comm.parcels_per_epoch": median(raw["parcels"]),
        "comm.batches_per_epoch": median(raw["batches"]),
        "comm.coalescing_factor": ratio(sum(raw["parcels"]), sum(raw["batches"])),
        "comm.flush_deadline_frac": ratio(sum(raw["flush_deadline"]),
                                          sum(raw["batches"])),
    })

    # Attribution of one epoch's worker time: kernel math (replay-projected
    # busy seconds), parked idle time, and the rest (engine, runtime,
    # serialization, spinning).  op_span_frac is the in-program operator
    # span time of the traced epochs: kernel math plus per-edge engine work.
    base = workers * p50
    kernel_frac = replay_busy / base
    idle_frac = ctr["idle_worker_s"] / epochs / base
    m.update({
        "attrib.base_worker_s": base,
        "attrib.kernel_frac": kernel_frac,
        "attrib.idle_frac": idle_frac,
        "attrib.other_frac": 1.0 - kernel_frac - idle_frac,
        "attrib.op_span_frac": median(raw["op_busy_s"]) / base,
        "trace.overhead_frac": median(traced) / p50 - 1.0,
        "eval.traced_p50_s": median(traced),
        "eval.samples": len(raw["eval_s"]),
        "update.samples": len(raw["update_s"]),
        "accuracy.rel_l2_err": raw["rel_l2_err"],
        "check.failed_frac": raw["failed"] / raw["attempted"],
    })
    return m


def load_spec():
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_FILE.name}: {e}") from e


def emit(values, declared):
    """{name: {"value", "unit"}} for exactly the declared metrics."""
    names = [d["name"] for d in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise BenchError(f"metrics differ from {SPEC_FILE.name}: "
                         f"missing {missing}, undeclared {extra}")
    out = {}
    for d in declared:
        v = values[d["name"]]
        if not NAME_RE.match(d["name"]):
            raise BenchError(f"bad metric name {d['name']!r}")
        if not math.isfinite(v):
            raise BenchError(f"metric {d['name']} is not finite: {v}")
        out[d["name"]] = {"value": v, "unit": d["unit"]}
    return out


# --- build and run -----------------------------------------------------------

def sh(cmd, timeout):
    r = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise BenchError(f"command failed ({r.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("amtfmm sources (src/) not found beside fmmbench/")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.is_file():
        sh(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    sh(["cmake", "--build", BUILD, "--target", "fmmbench_driver",
        "-j", str(os.cpu_count() or 2)], 850)


def run_driver(workload, seed, seconds, trace):
    cmd = [DRIVER, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}"]
    r = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"driver exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def result(raw, spec, trace):
    """The benchmark's final JSON object for one run."""
    if trace:
        metrics = emit(per_layer(raw), spec["per_layer"])
    else:
        metrics = emit(end_to_end(raw), spec["end_to_end"])
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def summary(raw):
    """Readable lines: the end-to-end metrics with sample counts, plus the
    checks (failed_frac, rel_l2_err) and the update time."""
    e2e = end_to_end(raw)
    upd = raw["update_s"]
    ev = raw["eval_s"]
    spread = ""
    if len(ev) > 1:
        q1, _, q3 = quartiles(ev)
        spread = f"q1/q3 {q1:.4f}/{q3:.4f} s, spread {iqr_share(ev):.3f}"
    return [
        f"{raw['workload']} seed={raw['seed']}",
        f"  eval_p50_s    {e2e['eval_p50_s']:.4f} s   (n={len(ev)}; {spread})",
        f"  evals_per_s   {e2e['evals_per_s']:.4f} 1/s",
        f"  setup_s       {e2e['setup_s']:.4f} s   (n={len(raw['setup_s'])})",
        f"  update_p50_s  " + (f"{median(upd):.4f} s   (n={len(upd)})"
                               if upd else "n/a (fixed geometry)"),
        f"  rel_l2_err    {raw['rel_l2_err']:.3e}  (max over checked epochs)",
        f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB",
        f"  failed_frac   {raw['failed'] / raw['attempted']:.4f}  "
        f"({raw['failed']}/{raw['attempted']} epochs)",
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for w in names:
            raw = run_driver(w, args.seed, args.seconds, args.trace)
            for line in summary(raw):
                print(line, file=sys.stderr)
            results[w] = result(raw, spec, args.trace)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError,
            ZeroDivisionError) as e:
        print(f"fmmbench: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for w, res in results.items():
            cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in res["metrics"].items())
            print(f"{w:15s} failed={res['failed']}/{res['attempted']}  {cells}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
