"""Self-tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import metrics  # noqa: E402


def raw_run(samples, streams=((1.0, 0),), measured_s=2.0, setup_s=(1.0,)):
    return metrics.load_raw({
        "meta": {"workload": "tpch_power_serial"},
        "setup_s": list(setup_s),
        "samples": samples,
        "streams": list(streams),
        "measured_s": measured_s,
        "mismatches": 0,
        "peak_rss_mib": 100.0,
    })


OK = 2  # index of the ok flag in a raw sample


def all_queries(ms=10.0, ok=1, traced=0):
    return [[q, ms, ok, traced] for q in metrics.QUERIES]


def passes(n):
    """n passes of all_queries(), each sample its own list."""
    return [s for _ in range(n) for s in all_queries()]


class GeomeanTest(unittest.TestCase):
    def test_equal_weights(self):
        self.assertAlmostEqual(metrics.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(metrics.geomean([2, 2, 2]), 2.0)

    def test_infinite_member_makes_it_infinite(self):
        self.assertEqual(metrics.geomean([1, math.inf]), math.inf)

    def test_rejects_empty_and_non_positive(self):
        with self.assertRaises(ValueError):
            metrics.geomean([])
        with self.assertRaises(ValueError):
            metrics.geomean([1, 0])


class TailPercentileTest(unittest.TestCase):
    def test_p90_when_enough_samples_lie_beyond(self):
        pct, value, n = metrics.tail_percentile(range(1, 201))
        self.assertEqual((pct, value, n), (0.9, 180, 200))
        self.assertGreaterEqual(n - 180, metrics.MIN_BEYOND)

    def test_falls_back_to_keep_ten_beyond(self):
        # 50 samples: p90 would leave only 5 beyond; rank 40 leaves 10.
        pct, value, n = metrics.tail_percentile(range(1, 51))
        self.assertEqual((pct, value, n), (0.8, 40, 50))

    def test_exactly_ten_beyond_at_p90(self):
        pct, value, _ = metrics.tail_percentile(range(1, 101))
        self.assertEqual((pct, value), (0.9, 90))

    def test_order_does_not_matter(self):
        values = [5, 1, 9, 3, 7] * 10
        self.assertEqual(metrics.tail_percentile(values),
                         metrics.tail_percentile(sorted(values)))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile(range(10))
        self.assertEqual(metrics.tail_percentile(range(11))[1], 0)


class FailedAsInfiniteTest(unittest.TestCase):
    def test_failed_sample_is_infinitely_slow(self):
        self.assertEqual(metrics.latency({"ms": 3.0, "ok": False}), math.inf)
        self.assertEqual(metrics.latency({"ms": 3.0, "ok": True}), 3.0)

    def test_failures_move_the_tail_not_the_median(self):
        samples = passes(5)
        for s in samples[:12]:
            s[OK] = 0  # failed
        m, details = metrics.end_to_end(raw_run(samples))
        self.assertEqual(details["latency_p50_ms"], 10.0)
        self.assertEqual(m["latency_p90_ms"], math.inf)

    def test_a_query_failing_every_time_makes_the_geomean_infinite(self):
        samples = passes(3)
        for s in samples:
            if s[0] == 21:
                s[OK] = 0
        m, _ = metrics.end_to_end(raw_run(samples))
        self.assertEqual(m["power_geomean_ms"], math.inf)

    def test_failed_queries_do_not_count_towards_qps(self):
        samples = passes(2)
        samples[0][OK] = 0
        m, _ = metrics.end_to_end(raw_run(samples, measured_s=8.6))
        self.assertAlmostEqual(m["qps"], 5.0)  # 43 correct in 8.6 s


class FailedFracTest(unittest.TestCase):
    def test_counts_every_failed_sample_against_every_attempt(self):
        samples = passes(2)
        samples[3][OK] = 0
        samples[30][OK] = 0
        run = raw_run(samples)
        self.assertEqual(metrics.counts(run), (44, 2))
        self.assertAlmostEqual(metrics.failed_frac(*metrics.counts(run)),
                               2 / 44)

    def test_traced_samples_are_attempts_too(self):
        samples = all_queries() + all_queries(ok=0, traced=1)
        self.assertEqual(metrics.counts(raw_run(samples)), (44, 22))

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            metrics.failed_frac(0, 0)


class EndToEndTest(unittest.TestCase):
    def test_power_geomean_weighs_every_query_the_same(self):
        samples = []
        for q in metrics.QUERIES:
            ms = 1000.0 if q == 21 else 10.0
            samples += [[q, ms, 1, 0], [q, ms * 3, 1, 0], [q, ms, 1, 0]]
        m, _ = metrics.end_to_end(raw_run(samples))
        self.assertAlmostEqual(m["power_geomean_ms"],
                               math.exp((21 * math.log(10) +
                                         math.log(1000)) / 22))

    def test_traced_samples_and_streams_are_left_out(self):
        samples = all_queries() + all_queries(ms=99.0, traced=1)
        m, _ = metrics.end_to_end(
            raw_run(samples, streams=[[1.0, 0], [9.0, 1], [3.0, 0]]))
        self.assertAlmostEqual(m["power_geomean_ms"], 10.0)
        self.assertEqual(m["stream_s"], 2.0)

    def test_setup_is_the_median_of_its_repetitions(self):
        m, _ = metrics.end_to_end(
            raw_run(all_queries(), setup_s=(1.0, 5.0, 2.0)))
        self.assertEqual(m["setup_s"], 2.0)

    def test_missing_query_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw_run(all_queries()[1:]))


class BestFlavorTest(unittest.TestCase):
    def site(self, *flavors, sets=("branch",)):
        return {"label": "s", "sets": list(sets), "flavors": [
            {"name": n, "tuples": t, "cycles": c, "timed_tuples": tt}
            for n, t, c, tt in flavors]}

    def test_cheapest_by_timed_cycles_per_tuple(self):
        # "b" ran fewer tuples but is cheaper per timed tuple.
        site = self.site(("a", 900, 900, 300), ("b", 100, 50, 100))
        self.assertEqual(metrics.best_flavor_tuples(site), (100, 1000))

    def test_single_flavor_site_is_not_adaptive(self):
        site = self.site(("a", 900, 900, 300), ("b", 0, 0, 0))
        self.assertIsNone(metrics.best_flavor_tuples(site))

    def test_profile_totals(self):
        sites = [self.site(("a", 60, 60, 60), ("b", 40, 20, 40)),
                 self.site(("x", 10, 5, 10), sets=("simd",))]
        t = metrics.profile_totals(sites)
        self.assertEqual((t["sites"], t["best_tuples"], t["site_tuples"]),
                         (1, 40, 100))
        self.assertEqual((t["cycles"], t["tuples"]), (85, 110))
        self.assertEqual((t["branch"], t["simd"], t["unroll"]), (80, 5, 0))


class PerLayerTest(unittest.TestCase):
    """A synthetic traced serial run: one set-up, one untraced pass of
    2 s and one traced pass of 22 x 100 ms = 2.2 s."""

    def spans(self):
        spans = []

        def add(name, parent=-1, query=0, ms=1.0, **counters):
            spans.append({"id": len(spans), "name": name, "parent": parent,
                          "query": query, "start_ns": 0,
                          "end_ns": int(ms * 1e6), "counters": counters})
            return spans[-1]

        setup = add("setup")
        add("tpch.Generate", setup["id"], ms=1500.0)
        for q in metrics.QUERIES:
            add("plan.Compiler.BuildStagePlan", setup["id"], q, ms=0.5,
                stages=2)
        traced = add("pass")
        site = {"label": "s", "sets": ["simd"], "flavors": [
            {"name": "a", "tuples": 30, "cycles": 90, "timed_tuples": 30},
            {"name": "b", "tuples": 70, "cycles": 70, "timed_tuples": 70}]}
        for q in metrics.QUERIES:
            add("plan.QuerySession.Run", traced["id"], q, ms=100.0, ok=1,
                total_cycles=4e6, prim_cycles=1e6, accounting=1,
                mem_peak_bytes=q * metrics.MIB)
            add("plan.QuerySession.Profile", traced["id"], q)["detail"] = [
                site]
        return spans

    def test_metrics_from_spans(self):
        raw = raw_run(all_queries() + all_queries(traced=1),
                      streams=[[2.0, 0], [2.2, 1]])
        m, details = metrics.per_layer(raw, self.spans())
        self.assertEqual(list(m), list(metrics.per_layer_units()))
        self.assertEqual(m["tpch.generate_s"], 1.5)
        self.assertEqual(m["plan.compile_ms"], 11.0)
        self.assertEqual(m["plan.stages"], 44)
        self.assertEqual(m["query.Q21_ms"], 100.0)
        self.assertEqual(m["exec.wall_Mcycles"], 88.0)
        self.assertEqual(m["prim.cpu_Mcycles"], 22.0)
        self.assertEqual(m["exec.mem_peak_mib.Q21"], 21.0)
        self.assertEqual(m["prim.cycles_per_tuple"], 1.6)
        self.assertEqual(m["adapt.best_flavor_tuple_share"], 0.7)
        self.assertEqual(m["adapt.sites"], 22)
        self.assertAlmostEqual(m["adapt.set.simd_Mcycles"], 22 * 160 / 1e6)
        self.assertEqual(m["adapt.set.branch_Mcycles"], 0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertEqual(m["serve.retries"], 0)
        self.assertEqual(m["knowledge.plan_cache_hit_rate"], 0)
        self.assertEqual(details["traced_query_calls"], 22)


if __name__ == "__main__":
    unittest.main()
