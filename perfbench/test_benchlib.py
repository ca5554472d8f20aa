"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib


def grid_out(records, bad=(), warm_differs=()):
    return {"records": list(records), "bad": list(bad),
            "warm_differs": list(warm_differs)}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 1001))  # 1..1000
        self.assertEqual(benchlib.percentile_with_tail(samples, 0.5), 500)
        self.assertEqual(benchlib.percentile_with_tail(samples, 0.99), 990)

    def test_order_does_not_matter(self):
        samples = [float(x) for x in range(2000, 0, -1)]
        self.assertEqual(benchlib.percentile_with_tail(samples, 0.99), 1980.0)

    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 samples leaves exactly 10 above it: reported.
        self.assertIsNotNone(
            benchlib.percentile_with_tail(list(range(1000)), 0.99))
        # 999 samples leave only 9 above the rank: refused.
        self.assertIsNone(
            benchlib.percentile_with_tail(list(range(999)), 0.99))
        self.assertIsNone(benchlib.percentile_with_tail([], 0.5))

    def test_rejects_bad_quantile(self):
        with self.assertRaises(ValueError):
            benchlib.percentile_with_tail([1, 2, 3], 1.0)


class GridFailureTest(unittest.TestCase):
    REF = ["a", "b", "c"]

    def test_clean_passes(self):
        passes = [grid_out(self.REF), grid_out(self.REF)]
        self.assertEqual(benchlib.grid_failures(self.REF, passes, 3),
                         (0, 12))

    def test_each_kind_counts(self):
        out = grid_out(["a", "x", "c"], bad=[2], warm_differs=[0])
        # point 1 differs from the reference, point 2 is !ok/!verified,
        # one warm point differs from the cold pass.
        self.assertEqual(benchlib.grid_failures(self.REF, [out], 3), (3, 6))

    def test_bad_and_different_point_counts_once(self):
        out = grid_out(["a", "x", "c"], bad=[1])
        self.assertEqual(benchlib.grid_failures(self.REF, [out], 3), (1, 6))

    def test_aborted_process_fails_everything(self):
        passes = [grid_out(self.REF), None]
        self.assertEqual(benchlib.grid_failures(self.REF, passes, 3),
                         (6, 12))

    def test_missing_reference_fails_cold_points(self):
        out = grid_out(self.REF)
        self.assertEqual(benchlib.grid_failures(None, [out], 3), (3, 6))
        self.assertEqual(benchlib.grid_failures(["a"], [out], 3), (3, 6))

    def test_truncated_output_fails_missing_points(self):
        out = grid_out(["a"])
        self.assertEqual(benchlib.grid_failures(self.REF, [out], 3), (2, 6))


class ServeFailureTest(unittest.TestCase):
    def out(self, **kw):
        base = {"errors": 0, "mismatches": 0, "aborts": 0, "unsent": 0,
                "fatal": "", "attempted": 100}
        base.update(kw)
        return base

    def test_clean(self):
        self.assertEqual(benchlib.serve_failures(self.out()), (0, 100))

    def test_each_kind_counts(self):
        out = self.out(errors=2, mismatches=1, aborts=1)
        self.assertEqual(benchlib.serve_failures(out), (4, 100))

    def test_unsent_lines_fail(self):
        # The daemon died with 30 request lines left: they count as
        # attempted and failed, and so does the fatal error.
        out = self.out(errors=1, aborts=1, unsent=30, fatal="gone")
        self.assertEqual(benchlib.serve_failures(out), (33, 130))

    def test_dead_process(self):
        self.assertEqual(benchlib.serve_failures(None), (1, 1))


class RequestMixTest(unittest.TestCase):
    FRESH = len(benchlib.universe()) - 112

    def test_same_seed_same_sequence(self):
        self.assertEqual(benchlib.request_mix(7), benchlib.request_mix(7))

    def test_different_seeds_differ(self):
        self.assertNotEqual(benchlib.request_mix(7), benchlib.request_mix(8))

    def test_reads_repeat_served_keys_and_writes_are_new(self):
        served = {benchlib.point_line(p) for p in benchlib.universe()
                  if benchlib.prepopulated(p)}
        self.assertEqual(len(served), 112)  # the populate grid
        for kind, line in benchlib.request_mix(3):
            if kind == benchlib.READ:
                self.assertIn(line, served)
            elif kind == benchlib.WRITE:
                self.assertNotIn(line, served)
                served.add(line)
            elif kind == benchlib.GRID:
                self.assertTrue(line.startswith("grid "))
            else:
                self.assertEqual((kind, line), (benchlib.RESTART, "restart"))

    def test_counts_are_fixed(self):
        mix = benchlib.request_mix(5)
        kinds = [k for k, _ in mix]
        blocks = self.FRESH
        self.assertEqual(kinds.count(benchlib.WRITE), blocks)
        self.assertEqual(kinds.count(benchlib.GRID), blocks)
        self.assertEqual(kinds.count(benchlib.READ),
                         blocks * (benchlib.READS_PER_WRITE - 1))
        self.assertEqual(kinds.count(benchlib.RESTART), 1)
        # The restart splits the run into two equal phases.
        self.assertEqual(kinds.index(benchlib.RESTART), len(mix) // 2)

    def test_every_seed_writes_every_fresh_point_once(self):
        fresh = {benchlib.point_line(p) for p in benchlib.universe()
                 if not benchlib.prepopulated(p)}
        for seed in (1, 2):
            writes = [line for k, line in benchlib.request_mix(seed)
                      if k == benchlib.WRITE]
            self.assertEqual(len(writes), len(set(writes)))
            self.assertEqual(set(writes), fresh)

    def test_phases_hold_the_same_mix(self):
        mix = benchlib.request_mix(11)
        cut = mix.index((benchlib.RESTART, "restart"))

        def strata(part):
            # kernel, platform, threads, policy of every write; the page
            # size is the one field the phases split on.
            return sorted(tuple(line.split()[1:4] + line.split()[5:])
                          for k, line in part if k == benchlib.WRITE)
        self.assertEqual(strata(mix[:cut]), strata(mix[cut + 1:]))
        self.assertEqual(len(strata(mix[:cut])), self.FRESH // 2)


if __name__ == "__main__":
    unittest.main()
