import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

END_TO_END = [{"name": "ops_per_s", "better": "higher"},
              {"name": "latency_ms_p50", "better": "lower"}]


def test_file_names_follow_the_bench_pattern():
    assert (bench_pairs.bench_name("hull-loops", "own-hull", 1001, 3,
                                   "parent")
            == "BENCH_hull-loops_own-hull_1001_03_parent.json")


def test_metrics_come_from_the_last_line():
    out = ('{"env": {}}\n{"correct": true, "metrics": '
           '{"ops_per_s": {"value": 5.0, "unit": "1/s"}}}\n')
    assert bench_pairs.metrics_of(out) == {"ops_per_s": 5.0}


def test_summary_counts_wins_in_the_metric_direction():
    pairs = [({"ops_per_s": p, "latency_ms_p50": 2.0},
              {"ops_per_s": c, "latency_ms_p50": 2.0 - (c > p)})
             for p, c in ((10.0, 11.0), (10.0, 9.0), (12.0, 13.0),
                          (11.0, 11.0))]
    ops, p50 = bench_pairs.summarize(pairs, END_TO_END)
    assert ops == ("ops_per_s: parent 10.5 [10-11.25] change 11 [10.5-11.5] "
                   "+4.8%, better (higher) in 2/4 pairs, parent IQR 1.25")
    assert p50.startswith("latency_ms_p50: parent 2 [2-2] change 1.5 ")
    assert p50.endswith("better (lower) in 2/4 pairs, parent IQR 0")


def test_one_pair_has_its_value_as_every_quartile():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
