"""Fast checks of the benchmark itself.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from collections import Counter
from math import comb
from pathlib import Path

from layers import PER_LAYER, attribute, self_times, unit_of
from oracle import determinant_value, verdict
from run import END_TO_END, ROOT, RUNS, SRC, Launcher, tail
from workloads import CONTRACT_JOBS, WORKLOADS, Job, job_list

HERE = Path(__file__).resolve().parent


def nullity_report(n: int, k: int, seed: int) -> dict:
    value = comb(2 * n, n - k)
    return {"version": "0.1.0", "n": n, "k": k, "seed": seed,
            "sample": "3/7", "samples": ["5/2", "3/7"],
            "rank": comb(2 * n, n) - value, "nullity": value,
            "bound": value, "pass": True}


def encode(report: dict) -> bytes:
    return json.dumps(report).encode()


class OracleTest(unittest.TestCase):
    job = Job("nullity-gram", (3, 2), (("--seed", 7),))

    def test_accepts_the_closed_form_answer(self):
        self.assertEqual(verdict(self.job, 0, encode(nullity_report(3, 2, 7)), b""), "")

    def test_rejects_a_wrong_nullity(self):
        report = nullity_report(3, 2, 7)
        report["nullity"] += 1
        report["rank"] -= 1
        self.assertIn("nullity", verdict(self.job, 0, encode(report), b""))

    def test_rejects_pass_false(self):
        report = dict(nullity_report(3, 2, 7), **{"pass": False})
        self.assertIn("pass", verdict(self.job, 0, encode(report), b""))

    def test_rejects_a_traceback_on_stderr(self):
        stderr = b'Traceback (most recent call last):\n  ...\nAssertionError\n'
        reason = verdict(self.job, 0, encode(nullity_report(3, 2, 7)), stderr)
        self.assertIn("traceback", reason)

    def test_rejects_unparsable_output_and_wrong_exit(self):
        self.assertEqual(verdict(self.job, 0, b"{", b""), "unparsable output")
        self.assertIn("exit 1", verdict(self.job, 1, b"", b""))

    def test_contract_job_needs_exit_2(self):
        telescoping = next(j for j in CONTRACT_JOBS if j.command == "telescoping")
        empty = encode({"max_n": -3, "pass": True, "results": []})
        self.assertIn("expected 2", verdict(telescoping, 0, empty, b""))
        self.assertEqual(verdict(telescoping, 2, b"", b"error: need n >= 1\n"), "")

    def test_symbolic_determinant_checked_at_points(self):
        job = Job("det-verify", (1,), points=((2, 3), (-1, 4)))
        good = {"n": 1, "pass": True, "determinant": "-1*a^2*d^0 + 1*a^0*d^2"}
        self.assertEqual(verdict(job, 0, encode(good), b""), "")
        bad = dict(good, determinant="-1*a^2*d^0 + 2*a^0*d^2")
        self.assertIn("wrong answer", verdict(job, 0, encode(bad), b""))
        # det G_1 = d^2 - a^2 = T_1(d)^2 - a^2.
        self.assertEqual(determinant_value(1, 2, 3), 5)


class SpanTest(unittest.TestCase):
    # job: main 0..10 -> {pair 1..4, skein_matrix 5..9 -> helper 6..7};
    # evaluate is a merged span of three calls lasting 2.5 s in total.
    spans = [
        {"id": 1, "name": "cli.main", "parent": 0, "dur": 10.0},
        {"id": 2, "name": "annular.pair", "parent": 1, "dur": 3.0},
        {"id": 3, "name": "tl.skein_matrix", "parent": 1, "dur": 4.0},
        {"id": 4, "name": "tl.projector_pairing_value", "parent": 3, "dur": 1.0},
        {"id": 5, "name": "polynomials.LaurentScalar.evaluate", "parent": 2,
         "dur": 2.5, "count": 3},
        {"id": 6, "name": "tl.quantum_dimension", "parent": 1, "dur": 0.5},
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.spans),
                         {1: 2.5, 2: 0.5, 3: 3.0, 4: 1.0, 5: 2.5, 6: 0.5})

    def test_helpers_charge_the_nearest_metric_of_their_layer(self):
        totals = attribute(self.spans)
        self.assertEqual(totals["tl.skein_matrix_s"], 4.0)  # 3.0 + helper 1.0
        self.assertEqual(totals["tl.other_s"], 0.5)  # no tl metric above it
        self.assertEqual(totals["cli.main_self_s"], 2.5)
        self.assertEqual(totals["annular.pair_s"], 0.5)
        self.assertEqual(totals["polynomials.laurent_evaluate_s"], 2.5)
        # Self times partition the root span's duration.
        self.assertEqual(sum(totals.values()), 10.0)

    def test_tail_keeps_ten_jobs_beyond(self):
        walls = [float(i) for i in range(30)]
        self.assertEqual(tail(walls), (19.0, 100.0 * 20 / 30))
        self.assertEqual(tail(walls[:5]), (4.0, 100.0))


class JobListTest(unittest.TestCase):
    def test_same_seed_same_list(self):
        for workload in WORKLOADS:
            self.assertEqual(job_list(workload, 7, 4), job_list(workload, 7, 4))

    def test_seed_changes_instances_not_the_mix(self):
        def mix(jobs):
            return Counter((j.command, j.args[0] if j.args else None) for j in jobs)
        for workload in WORKLOADS:
            a, b = job_list(workload, 1, 6), job_list(workload, 2, 6)
            self.assertNotEqual(a, b)
            if workload != "basis":  # basis draws bijection/counts sizes
                self.assertEqual(mix(a), mix(b))
            known = sum(1 for j in a if j.known_bug)
            self.assertEqual(known, 6 * 3 if workload == "basis" else 0)

    def test_list_does_not_depend_on_the_process(self):
        code = ("import sys; sys.path.insert(0, %r); from workloads import job_list; "
                "print([j.argv() for w in ('basis', 'nullity', 'symbolic') "
                "for j in job_list(w, 5, 2)])" % str(HERE))
        outs = {
            subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=h)).stdout
            for h in ("1", "2")
        }
        self.assertEqual(len(outs), 1)


class ShimTest(unittest.TestCase):
    def test_import_sites_are_patched(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans_file = Path(tmp) / "spans.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "shim.py"), str(spans_file),
                 "nullity-skein", "3", "2", "--seed", "0", "--format", "json"],
                capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                cwd=ROOT)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            trace = json.loads(spans_file.read_text())
        by_id = {s["id"]: s for s in trace["spans"]}
        parents = {(by_id[s["parent"]]["name"] if s["parent"] else None, s["name"])
                   for s in trace["spans"]}
        # rank_exact and pair reached through tl's own bindings.
        self.assertIn(("tl.skein_nullity", "linalg.rank_exact"), parents)
        self.assertIn(("tl.skein_matrix", "annular.pair"), parents)
        self.assertIn(("linalg.rank_exact", "linalg._integer_rank"), parents)
        self.assertGreater(trace["counters"]["linalg.rank_input_bits"], 0)


class LauncherTest(unittest.TestCase):
    def test_peak_rss_is_the_jobs_own(self):
        # A child forked from this process would start out counting its
        # 128 MiB as resident; one spawned by the launcher does not.
        ballast = bytearray(128 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        scratch = RUNS / "test"
        scratch.mkdir(parents=True, exist_ok=True)
        with Launcher(scratch) as launcher:
            result = launcher.run(Job("enumerate", (1,)))
        self.assertEqual(verdict(result.job, result.exit_code, result.stdout,
                                 result.stderr), "")
        self.assertLess(result.maxrss_kb, 64 << 10)
        self.assertGreater(result.wall, 0.0)
        del ballast


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_the_benchmark_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(PER_LAYER))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], unit_of(m["name"]))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
