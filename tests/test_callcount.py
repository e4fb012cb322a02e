"""The call counter: exact counts that repeat, in one process and across two."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("callcount", ROOT / "tools" / "callcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_repeat_in_one_process():
    tool = load_tool()
    frame = tool.build_calls(ROOT, ["frame"])["frame"]
    frame()
    first = tool.count_calls(frame)
    assert first[0] > 10_000 and first[1] > 10_000
    assert tool.count_calls(frame) == first


def test_a_checkout_against_itself_reads_no_delta(capsys):
    tool = load_tool()
    assert tool.main(["--parent", str(ROOT), "--change", str(ROOT), "--calls", "frame"]) == 0
    parent, change, delta = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert parent["side"] == "parent" and change["side"] == "change"
    assert parent["spade"] == change["spade"] == str(ROOT / "src" / "spade")
    frame = delta["delta"]["frame"]
    assert frame["python_calls"] == frame["c_calls"] == 0
    assert abs(frame["tracemalloc_peak_kib"]) <= tool.PEAK_NOISE_KIB
