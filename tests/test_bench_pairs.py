"""The summary of tools/bench_pairs.py on canned perfbench result lines."""
from __future__ import annotations

import json
import subprocess

import pytest

from helpers import load_tool

BETTER = {"wall_s": "lower", "items_per_s": "higher"}


def result_line(correct: bool, failed: int, wall_s: float, items_per_s: float) -> str:
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "items_per_s": {"value": items_per_s, "unit": "1/s"}}
    return json.dumps({"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics})


def canned_runs(tool) -> list[dict]:
    # parent then change, per pair; pair 3's change run is not correct and
    # pair 4's parent run printed no result line
    rows = [
        (0, 1.0, 10.0, 0.8, 12.0),
        (1, 1.2, 11.0, 0.9, 10.5),
        (2, 0.9, 10.0, 1.0, 10.0),
        (3, 1.1, 9.0, 0.7, 13.0),
    ]
    runs = []
    for pair, p_wall, p_items, c_wall, c_items in rows:
        stdout = {
            "parent": f"workload off_origin\n{result_line(True, 0, p_wall, p_items)}\n",
            "change": f"  metric\n{result_line(pair != 3, int(pair == 3), c_wall, c_items)}\n\n",
        }
        for side in ("parent", "change"):
            runs.append({"workload": "off_origin", "pair": pair, "side": side, "returncode": 0,
                         "result": tool.last_json_line(stdout[side])})
    runs.append({"workload": "off_origin", "pair": 4, "side": "parent", "returncode": 1,
                 "result": tool.last_json_line("Traceback (most recent call last):\n")})
    runs.append({"workload": "off_origin", "pair": 4, "side": "change", "returncode": 0,
                 "result": tool.last_json_line(result_line(True, 0, 0.5, 20.0))})
    return runs


def test_summary_medians_quartiles_and_wins():
    tool = load_tool("bench_pairs")
    record = tool.summarize(canned_runs(tool), BETTER)["off_origin"]
    wall = record["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [1.0, 1.2, 0.9, 1.1]
    assert wall["parent"]["median"] == pytest.approx(1.05)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((0.975, 1.125))
    assert wall["change"]["values"] == [0.8, 0.9, 1.0, 0.7, 0.5]
    assert wall["change"]["median"] == 0.8
    # lower is better: pairs 0, 1 and 3 won, pair 2 lost, pair 4 has no parent value
    assert (wall["pairs_won"], wall["pairs"]) == (3, 4)
    items = record["metrics"]["items_per_s"]
    # higher is better: pairs 0 and 3 won, pair 2 is a tie and not a win
    assert (items["pairs_won"], items["pairs"]) == (2, 4)
    assert items["better"] == "higher"


def test_summary_keeps_failed_and_missing_runs():
    tool = load_tool("bench_pairs")
    runs = tool.summarize(canned_runs(tool), BETTER)["off_origin"]["runs"]
    assert len(runs) == 10
    bad = [r for r in runs if r["correct"] is False]
    assert bad == [{"pair": 3, "side": "change", "returncode": 0, "correct": False, "attempted": 40, "failed": 1}]
    missing = [r for r in runs if r["returncode"] != 0]
    assert missing == [{"pair": 4, "side": "parent", "returncode": 1, "correct": None, "attempted": None,
                        "failed": None}]
    # the run that is not correct still counts in the medians
    record = tool.summarize(canned_runs(tool), BETTER)["off_origin"]
    assert 0.7 in record["metrics"]["wall_s"]["change"]["values"]


def test_spread_of_one_value_and_directions_from_the_benchmark():
    tool = load_tool("bench_pairs")
    assert tool.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "values": [2.0]}
    better = tool.directions(json.loads((tool.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    assert better["light_ms"] == "lower" and better["items_per_s"] == "higher"


def test_extract_writes_the_named_commit(tmp_path):
    tool = load_tool("bench_pairs")
    try:
        commit = tool.git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    tool.extract(commit, tmp_path)
    for name in ("pyproject.toml", "src/crosscap/surface.py", "perfbench/run.py"):
        assert (tmp_path / name).read_text(encoding="utf-8") == tool.git("show", f"{commit}:{name}") + "\n"
