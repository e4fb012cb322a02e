"""The pair recorder's summary, on canned perfbench output; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
END_TO_END = [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rss, rate, correct=True, failed=0):
    """The last line of a perfbench/run.py run, parsed."""
    return {
        "correct": correct,
        "attempted": 12,
        "failed": failed,
        "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}, "frames_per_s": {"value": rate, "unit": "1/s"}},
    }


def test_pairs_alternate_which_side_runs_first():
    tool = load_tool()
    assert [tool.pair_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"),
    ]


def test_env_line_is_read_from_the_run_output():
    env = {"numpy": "2.4.6", "nproc": 2}
    lines = ["env " + json.dumps(env), "failed_frac 0.0 frac (0 failed + 0 skipped of 12)", "setup_s 0.1 s"]
    assert load_tool().env_line(lines) == env


def test_summary_of_canned_pairs():
    tool = load_tool()
    parent = [(76.5, 100.0), (79.8, 110.0), (76.5, 90.0), (76.5, 105.0)]
    change = [(76.5, 120.0), (76.5, 100.0), (79.8, 99.0), (79.8, 126.0)]
    runs = []
    for i, (a, c) in enumerate(zip(parent, change)):
        runs.append(tool.run_record("frame", i, 10 + i, "parent", result(*a)))
        runs.append(tool.run_record("frame", i, 10 + i, "change", result(*c, correct=i != 2, failed=int(i == 2))))
    runs.append(tool.run_record("frame", 4, 14, "parent", result(1.0, 1.0)))  # a pair cut short is left out

    cell = tool.summarize(runs, END_TO_END)["frame"]
    assert cell["pairs"] == 4 and cell["incorrect_runs"] == 1 and cell["failed"] == {"parent": 0, "change": 1}

    rss = cell["peak_rss_mb"]
    assert rss["pair_ratios"] == pytest.approx([1.0, 76.5 / 79.8, 79.8 / 76.5, 79.8 / 76.5])
    assert rss["change_wins"] == 1  # lower is better; an equal pair is no win
    assert rss["parent"] == {"median": 76.5, "q1": 76.5, "q3": pytest.approx(79.8 - 0.25 * 3.3)}
    assert rss["median_change_vs_parent"] == pytest.approx(((76.5 + 79.8) / 2) / 76.5 - 1)
    assert rss["verdict"] == "within bound"  # +2.2% against a 10% bound

    rate = cell["frames_per_s"]
    assert rate["change_wins"] == 3  # higher is better
    assert rate["parent"]["median"] == 102.5 and rate["change"]["median"] == 110.0
    assert rate["verdict"] == "within bound"  # parent spread 16% of its median, under the 25% bound


def test_a_change_worse_than_its_bound_is_flagged():
    tool = load_tool()
    runs = []
    for i in range(3):
        runs.append(tool.run_record("sweep", i, i, "parent", result(70.0, 100.0)))
        runs.append(tool.run_record("sweep", i, i, "change", result(80.0, 70.0)))
    cell = tool.summarize(runs, END_TO_END)["sweep"]
    assert cell["peak_rss_mb"]["verdict"] == "worse than bound"  # +14% with lower better
    assert cell["frames_per_s"]["verdict"] == "worse than bound"  # -30% with higher better
    assert cell["frames_per_s"]["change_wins"] == 0


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    tool = load_tool()
    parent_rates = [60.0, 100.0, 140.0, 100.0]  # quartiles 70-130: 60% of the median, over the 25% bound

    def cell(change_rates):
        runs = []
        for i, (a, c) in enumerate(zip(parent_rates, change_rates)):
            runs.append(tool.run_record("frame", i, i, "parent", result(70.0, a)))
            runs.append(tool.run_record("frame", i, i, "change", result(70.0, c)))
        return tool.summarize(runs, END_TO_END)["frame"]["frames_per_s"]

    assert cell([100.0, 101.0, 99.0, 100.0])["verdict"] == "unresolved"  # same median, yet not resolved
    assert cell([40.0, 50.0, 45.0, 42.0])["verdict"] == "unresolved"  # even a worse median is not judged
    assert cell([141.0, 150.0, 145.0, 142.0])["verdict"] == "within bound"  # every change run beats every parent run
