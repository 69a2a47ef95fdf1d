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


def perfbench_stdout(import_s: float, warmup_s: float) -> str:
    return (
        "workload family_sweep  seed 31  rounds 7\n"
        "  correct True  attempted 40  failed 0\n"
        f"  set-up medians (nominal): import {import_s:.4f} s, inputs and warm-up {warmup_s:.4f} s\n"
        f"  {'metric':<12} {'nominal':>12} {'raw':>12}\n"
        f"{result_line(True, 0, 1.0, 10.0)}\n"
    )


def test_setup_split_is_read_from_the_set_up_line():
    tool = load_tool("bench_pairs")
    assert tool.setup_split(perfbench_stdout(0.0612, 0.0175)) == {"setup_import_s": 0.0612, "setup_warmup_s": 0.0175}
    # a run that printed no set-up line records nothing and does not fail
    assert tool.setup_split("Traceback (most recent call last):\n") == {}
    assert tool.setup_split(result_line(True, 0, 1.0, 10.0)) == {}


def test_setup_split_spreads_per_side_and_counts_no_wins():
    tool = load_tool("bench_pairs")
    runs = []
    for pair, (p_import, c_import) in enumerate([(0.080, 0.061), (0.075, 0.066), (0.090, 0.059)]):
        for side, import_s in (("parent", p_import), ("change", c_import)):
            stdout = perfbench_stdout(import_s, 0.02 + pair / 1000)
            runs.append({"workload": "family_sweep", "pair": pair, "side": side, "returncode": 0,
                         "result": tool.last_json_line(stdout), "setup": tool.setup_split(stdout)})
    # one change run without the line: kept as a run, absent from the split
    runs.append({"workload": "family_sweep", "pair": 3, "side": "change", "returncode": 1, "result": None,
                 "setup": tool.setup_split("")})
    record = tool.summarize(runs, BETTER)["family_sweep"]
    split = record["diagnostics"]
    assert split["setup_import_s"]["parent"]["values"] == [0.080, 0.075, 0.090]
    assert split["setup_import_s"]["parent"]["median"] == 0.080
    assert split["setup_import_s"]["change"]["values"] == [0.061, 0.066, 0.059]
    assert split["setup_warmup_s"]["change"]["values"] == [0.020, 0.021, 0.022]
    assert set(split["setup_import_s"]["change"]) == {"median", "q1", "q3", "values"}
    assert set(record["metrics"]) == set(BETTER)
    assert len(record["runs"]) == 7


def test_setup_split_of_runs_without_it_is_empty():
    tool = load_tool("bench_pairs")
    split = tool.summarize(canned_runs(tool), BETTER)["off_origin"]["diagnostics"]
    assert split["setup_warmup_s"]["parent"] == {"median": None, "q1": None, "q3": None, "values": []}
