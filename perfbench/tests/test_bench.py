"""Tests of the benchmark's pure parts: python3 -m unittest discover -s perfbench/tests"""

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import bench  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "config.json")) as f:
    CFG = json.load(f)
with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                       "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class Statistics(unittest.TestCase):
    def test_nearest_rank_percentile(self):
        v = list(range(1, 101))
        self.assertEqual(bench.percentile(v, 50), 50)
        self.assertEqual(bench.percentile(v, 95), 95)
        self.assertEqual(bench.percentile(v, 100), 100)
        self.assertEqual(bench.percentile([7.0], 95), 7.0)
        with self.assertRaises(ValueError):
            bench.percentile([], 50)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(bench.tail_percentile(list(range(200)), 95), 189)
        with self.assertRaises(ValueError):
            bench.tail_percentile(list(range(199)), 95)
        # p50 of 20 samples has 10 beyond it.
        self.assertEqual(bench.tail_percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            bench.tail_percentile(list(range(19)), 50)


class Schedules(unittest.TestCase):
    def test_poisson_schedule_is_a_function_of_the_seed(self):
        a = bench.serve_open_schedule(7, CFG["serve"])
        b = bench.serve_open_schedule(7, CFG["serve"])
        c = bench.serve_open_schedule(8, CFG["serve"])
        self.assertEqual(a, b)
        self.assertNotEqual([r["t"] for r in a], [r["t"] for r in c])
        self.assertEqual(len(a), CFG["serve"]["open_requests"])

    def test_every_block_carries_the_exact_mix(self):
        cfg = CFG["serve"]
        for mix, ops in ((cfg["mix"], cfg["ops"]),
                         (cfg["bulk_mix"], cfg["bulk_ops"])):
            rows = sorted((r[0], r[1]) for r in mix for _ in range(r[2]))
            keys = {r[0]: set(r[3]) for r in mix}
            stream = bench.request_stream(random.Random(4), mix, ops)
            used = {}
            for _ in range(4):
                block = [next(stream) for _ in rows]
                self.assertEqual(
                    sorted((r["steps"], r["count"]) for r in block), rows)
                for r in block:
                    used.setdefault(r["steps"], set()).add(r["model"])
            # Every steps class uses only its own keys, and spreads over them.
            self.assertEqual(used, keys)

    def test_open_p50_and_p95_fall_inside_one_class(self):
        # Sorted by class cost (hits, then short count-1 requests, ...,
        # heavy last), the p50 must lie inside the short count-1 class and
        # the p95 inside the heavy class, with requests of the class on
        # both sides, for every seed.
        cfg = CFG["serve"]
        heavy = max(r[0] for r in cfg["mix"])
        for seed in range(5):
            reqs = bench.serve_open_schedule(seed, cfg)
            cls = sorted(
                (0 if r["repeat_of"] >= 0 else
                 1 if (r["steps"], r["count"]) == (4, 1) else
                 3 if r["steps"] == heavy else 2) for r in reqs)
            n = len(cls)
            self.assertEqual(cls[n // 2 - 10:n // 2 + 10], [1] * 20)
            self.assertEqual(cls[int(0.95 * n) - 4:int(0.95 * n) + 4], [3] * 8)

    def test_long_requests_take_evenly_spaced_slots(self):
        cfg = CFG["serve"]
        every, spaced = cfg["spaced_every"], cfg["spaced_steps"]
        for seed in range(5):
            reqs = bench.serve_open_schedule(seed, cfg)
            long_at = [i for i, r in enumerate(reqs)
                       if r["repeat_of"] < 0 and r["steps"] in spaced]
            self.assertEqual(len(long_at), len(reqs) // every)
            self.assertTrue(all(b - a == every
                                for a, b in zip(long_at, long_at[1:])))
            # The long classes alternate.
            classes = [reqs[i]["steps"] for i in long_at]
            self.assertTrue(all(a != b for a, b in zip(classes, classes[1:])))

    def test_open_phase_supports_a_per_request_p95(self):
        # Latency is one value per request, so every p95 block of the open
        # phase must leave ten requests beyond its p95.
        n = len(bench.serve_open_schedule(2, CFG["serve"]))
        block = n // CFG["serve"]["p95_blocks"]
        p95 = bench.tail_percentile(list(range(block)), 95)
        self.assertGreaterEqual(block - 1 - p95, 10)

    def test_poisson_arrivals_rate(self):
        t = bench.poisson_arrivals(random.Random(1), 10.0, 5000)
        self.assertTrue(all(x < y for x, y in zip(t, t[1:])))
        self.assertAlmostEqual(t[-1] / len(t), 0.1, delta=0.005)

    def test_repeats_copy_an_old_enough_original(self):
        cfg = CFG["serve"]
        reqs = bench.serve_open_schedule(3, cfg)
        repeats = [r for r in reqs if r["repeat_of"] >= 0]
        self.assertTrue(repeats)
        for r in repeats:
            orig = reqs[r["repeat_of"]]
            self.assertEqual(orig["repeat_of"], -1)
            self.assertLessEqual(orig["t"], r["t"] - cfg["repeat_min_age_s"])
            for k in ("model", "op", "seed", "count", "steps", "tmpl",
                      "mask_id"):
                self.assertEqual(orig[k], r[k])

    def test_plans_are_functions_of_the_seed(self):
        for w in ("library", "serve", "expand"):
            a = bench.make_plan(w, 5, 20, 0, CFG)
            self.assertEqual(a, bench.make_plan(w, 5, 20, 0, CFG))
            self.assertNotEqual(a, bench.make_plan(w, 6, 20, 0, CFG))

    def test_balanced_starters_cover_the_pool_evenly(self):
        draws = bench.balanced_starters(random.Random(5), 10, 3)
        self.assertTrue(all(len(set(d)) == 3 for d in draws))
        counts = [sum(d.count(x) for d in draws) for x in range(10)]
        self.assertEqual(counts, [3] * 10)
        self.assertNotEqual(draws,
                            bench.balanced_starters(random.Random(6), 10, 3))

    def test_serve_verifies_only_original_requests(self):
        plan = bench.make_plan("serve", 9, 20, 0, CFG)["serve"]
        self.assertEqual(len(plan["verify"]), CFG["serve"]["verify"])
        for i in plan["verify"]:
            self.assertEqual(plan["open"][i]["repeat_of"], -1)


class Accounting(unittest.TestCase):
    def test_tally_counts_every_non_ok_outcome_as_failed(self):
        outcomes = ["ok", "queue_full", "ok", "no_response", "queue_full",
                    "timeout", "ok"]
        self.assertEqual(bench.tally(outcomes),
                         (7, 4, {"queue_full": 2, "no_response": 1,
                                 "timeout": 1}))
        self.assertEqual(bench.tally(["ok"]), (1, 0, {}))

    def _raw(self, latency, requested):
        return {"setup_s": [0.3, 0.1, 0.2], "peak_rss_mb": 20.0,
                "rate_items": [100, 90], "rate_secs": [10.0, 10.0],
                "legal": 3, "samples_checked": 4, "h2": 5.0,
                "violations": 2, "pixels": 4096,
                "latency_segments": latency, "latency_requested": requested}

    def test_failed_samples_miss_the_latency_limit(self):
        lat = [[10.0] * 200]
        m = bench.end_to_end(self._raw(lat, 250), {"latency_limit_ms": 50})
        self.assertAlmostEqual(m["slo_frac"], 200 / 250)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["samples_per_s"], 9.5)
        self.assertEqual(m["legal_rate"], 0.75)
        self.assertAlmostEqual(m["violations_per_kpx"], 2 / 4.096)

    def test_end_to_end_leaves_out_a_p95_without_ten_samples_beyond(self):
        m = bench.end_to_end(self._raw([[1.0] * 199], 200),
                             {"latency_limit_ms": 50})
        self.assertNotIn("p95_ms", m)
        self.assertIn("p50_ms", m)

    def test_open_p95_is_the_median_over_blocks(self):
        # Three blocks of 200 requests; the middle one is disturbed.
        lat = list(range(200)) + [x + 1000.0 for x in range(200)] + \
            list(range(200))
        cfg = {"latency_limit_ms": 5000, "p95_blocks": 3}
        m = bench.end_to_end(self._raw([lat], 600), cfg)
        self.assertEqual(m["p95_ms"], 189)
        self.assertEqual(m["p50_ms"], 149)
        # A block with fewer than ten requests beyond its p95 drops the p95.
        m = bench.end_to_end(self._raw([lat[:597]], 600), cfg)
        self.assertNotIn("p95_ms", m)

    def test_segmented_latency_takes_the_median_over_segments(self):
        segs = [[1.0] * 10 + [9.0] * 10, [2.0] * 20, [3.0] * 19 + [100.0]]
        m = bench.end_to_end(self._raw(segs, 60), {"latency_limit_ms": 5})
        self.assertEqual(m["p50_ms"], 2.0)
        self.assertEqual(m["p95_ms"], 3.0)
        self.assertEqual(m["slo_frac"], 49 / 60)

    def test_per_layer_reads_zero_for_layers_not_reached(self):
        counters = {k: 0 for k in (
            "pool.jobs", "pool.inline_jobs", "pool.job_wait_ns.sum",
            "pool.job_wait_ns.count", "pool.busy_frac", "ddpm.inpaint.calls",
            "denoise.pixels_repaired", "drc.clean", "drc.checks",
            "serve.batch_samples.sum", "serve.batch_samples.count",
            "serve.joins", "serve.repacks", "serve.net.lines",
            "expand.windows", "expand.waves", "expand.seam_violations")}
        counters["pool.jobs"] = 30
        raw = {"layers": {"counters": counters, "spans": {
            "unet.infer": {"count": 4, "total_ms": 40.0, "self_ms": 4.0},
            "nn.conv2d.gemm": {"count": 8, "total_ms": 36.0, "self_ms": 36.0}},
            "work_items": 10, "sample_steps": 160, "core_ms": 0.0,
            "covered_ms": 0.0, "trace_overhead_frac": 0.01,
            "dropped_spans": 0}}
        m = bench.per_layer(raw)
        self.assertEqual(set(m), {x["name"] for x in SPEC["per_layer"]})
        self.assertEqual(m["common.pool_jobs"], 3.0)
        self.assertEqual(m["nn.conv_share_of_unet"], 0.9)
        self.assertEqual(m["diffusion.samples_per_unet_call"], 40.0)
        self.assertEqual(m["serve.cache_hit_ratio"], 0.0)
        self.assertEqual(m["expand.wave_ms"], 0.0)
        self.assertEqual(m["obs.span_coverage"], 0.0)


class Contract(unittest.TestCase):
    def test_every_declared_end_to_end_metric_is_produced(self):
        e2e = bench.end_to_end(Accounting()._raw([[1.0] * 200], 200),
                               {"latency_limit_ms": 5})
        self.assertEqual(set(e2e), {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         {"library", "serve", "expand"})


if __name__ == "__main__":
    unittest.main()
