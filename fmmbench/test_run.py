#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics, metric names and output shape.

  python3 fmmbench/test_run.py

Needs no build: the driver's raw output is replaced by a synthetic record.
"""

import json
import math
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads(run.SPEC_FILE.read_text())
# Edge classes in the order of the program's Operator enum.
OPS = ["S2T", "S2M", "S2L", "M2M", "M2L", "M2T", "L2L", "L2T",
       "M2I", "I2I", "I2L"]
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def synthetic_raw(failed=0, churn=True):
    """A driver record with every field run.py reads."""
    ops = [c[0] + "->" + c[2] for c in OPS]
    return {
        "workload": "counting-churn", "seed": 7, "trace": True, "workers": 2,
        "layers": {"tree_build_s": 0.2, "kernel_setup_s": 1e-6,
                   "lists_build_s": 0.3, "dag_build_s": 0.5,
                   "dag_edges": 4372648},
        "setup_s": [1.0, 1.2, 1.1],
        "first_epoch_s": 0.9,
        "eval_s": [0.6, 0.7, 0.65, 0.62],
        "update_s": [0.03, 0.04, 0.035, 0.03] if churn else [],
        "dirty_leaves": [3900.0, 3950.0, 3800.0, 3700.0] if churn else [],
        "rebuilt": [0.0, 0.0, 1.0, 0.0] if churn else [],
        "reset_s": [0.02, 0.021, 0.022, 0.02],
        "gas_allocs": [0.0, 0.0, 0.0, 0.0],
        "parcels": [7600.0, 7600.0, 7600.0, 7600.0],
        "batches": [800.0, 820.0, 810.0, 790.0],
        "bytes": [2.0e6, 2.0e6, 2.0e6, 2.0e6],
        "flush_deadline": [100.0, 90.0, 110.0, 100.0],
        "traced_eval_s": [0.7, 0.72, 0.69],
        "op_busy_s": [1.1, 1.2, 1.0],
        "counters": {"sched.tasks_run": 570000, "idle_worker_s": 0.9,
                     "lco.input_wait_p50_us": 20.0},
        "replay": [{"op": op, "edges": 0 if op == "M->L" else 1000,
                    "total_bytes": 0 if op == "M->L" else 16000,
                    "us_per_edge": 0 if op == "M->L" else 0.05}
                   for op in ops],
        "pack_m_us": 0.05, "unpack_m_us": 0.05,
        "pack_x_us": 0.05, "unpack_x_us": 0.05,
        "probes": {"task_overhead_ns": 700.0, "metg_us": 1.5},
        "attempted": 9, "failed": failed, "rel_l2_err": 0.0,
        "peak_rss_mb": 414.0,
    }


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 2, 3]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        self.assertEqual(run.quartiles(list(range(1, 11))), [2.75, 5.5, 8.25])
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5]), [1.5, 3.0, 4.5])

    def test_iqr_share(self):
        self.assertAlmostEqual(run.iqr_share(list(range(1, 11))), 1.0)
        self.assertEqual(run.iqr_share([2.0] * 10), 0.0)

    def test_ratio_of_empty_base_is_zero(self):
        self.assertEqual(run.ratio(5, 0), 0.0)
        self.assertEqual(run.mean_or_zero([]), 0.0)


class Spec(unittest.TestCase):
    def all_metrics(self):
        return SPEC["end_to_end"] + SPEC["per_layer"]

    def test_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "fmmbench/run.py"])
        self.assertEqual(SPEC["paths"], ["fmmbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_names_are_valid_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in self.all_metrics()]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, run.NAME_RE)
            self.assertRegex(n, r"^[A-Za-z0-9_.-]+$")

    def test_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_fields(self):
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.all_metrics():
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_every_edge_class_is_declared(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for c in OPS:
            for suffix in ("us_per_edge", "busy_s", "bytes_per_edge", "edges"):
                self.assertIn(f"kernel.{c}.{suffix}", names)


class Output(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        res = run.result(synthetic_raw(), SPEC, trace=0)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(res["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})
        self.assertTrue(res["correct"])
        m = res["metrics"]
        self.assertEqual(m["eval_p50_s"], {"value": 0.635, "unit": "s"})
        self.assertAlmostEqual(m["evals_per_s"]["value"], 4 / (2.57 + 0.135))
        self.assertEqual(m["setup_s"]["value"], 1.1)

    def test_traced_run_prints_every_per_layer_metric(self):
        for churn in (True, False):
            res = run.result(synthetic_raw(churn=churn), SPEC, trace=1)
            self.assertEqual(set(res["metrics"]),
                             {m["name"] for m in SPEC["per_layer"]})
            for name, v in res["metrics"].items():
                self.assertTrue(math.isfinite(v["value"]), name)

    def test_attribution_closes(self):
        m = run.per_layer(synthetic_raw())
        total = m["attrib.kernel_frac"] + m["attrib.idle_frac"] + \
            m["attrib.other_frac"]
        self.assertAlmostEqual(total, 1.0)
        self.assertAlmostEqual(m["attrib.base_worker_s"], 2 * 0.635)
        self.assertEqual(m["kernel.M2L.bytes_per_edge"], 0.0)
        self.assertAlmostEqual(m["kernel.I2I.busy_s"], 1000 * 0.05e-6)

    def test_failed_epochs_make_the_run_incorrect(self):
        res = run.result(synthetic_raw(failed=2), SPEC, trace=0)
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (9, 2))
        self.assertAlmostEqual(
            run.per_layer(synthetic_raw(failed=2))["check.failed_frac"], 2 / 9)

    def test_emit_rejects_missing_and_non_finite_metrics(self):
        declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "s"}]
        with self.assertRaises(run.BenchError):
            run.emit({"a": 1.0}, declared)
        with self.assertRaises(run.BenchError):
            run.emit({"a": 1.0, "b": float("nan")}, declared)
        with self.assertRaises(run.BenchError):
            run.emit({"a": 1.0, "b": 2.0, "c": 3.0}, declared)


if __name__ == "__main__":
    unittest.main()
