"""Paired benchmark record: perfbench/run.py on a parent commit and on this
checkout, alternating, summarised as BENCH_<n>.json at the repo root.

    python tools/bench_pairs.py 27 --parent HEAD --pairs 10 --seed 27

The parent commit's tree is extracted with ``git archive`` into a
temporary directory, removed at the end, so that the recorded parent id
is the code that ran.  The change is this checkout as it stands,
uncommitted edits included.
Before any timing, ``python -m compileall -q src/crosscap`` runs in each
checkout, so that neither side compiles crosscap inside ``setup_s``.
Each run is ``perfbench/run.py`` unchanged, with ``--trace 0``, on every
workload BENCHMARK.json names and for its ``run_seconds`` unless
``--seconds`` says otherwise; its last output line is its JSON result.
For each workload the pairs alternate which side runs first.

The record holds, per workload, metric and side, the median, the
quartiles and every raw value, and per metric how many pairs the change
won, the better direction read from BENCHMARK.json.  As diagnostics, not
end-to-end metrics and not counted in any win, it holds per side the spread
of where ``setup_s`` went, read from perfbench's line ``set-up medians
(nominal): import X s, inputs and warm-up Y s``: ``setup_import_s`` and
``setup_warmup_s``; a run without that line adds nothing.  It lists every run
with its ``correct``, ``attempted`` and ``failed``: a run that is not
correct is kept, never dropped, and a run that printed no result is kept
with its exit code.  It also records the commit ids, the seed, the run
length, the pair count, the Python and numpy versions and os.cpu_count().
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SETUP_LINE = re.compile(r"set-up medians \(nominal\): import (\d+\.\d+) s, inputs and warm-up (\d+\.\d+) s")


def directions(benchmark: dict) -> dict[str, str]:
    """{metric: "lower" or "higher"} of the end-to-end metrics."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the raw values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0] if values else None
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def setup_split(stdout: str) -> dict[str, float]:
    """{"setup_import_s", "setup_warmup_s"} from perfbench's set-up line,
    empty where the run printed none."""
    match = SETUP_LINE.search(stdout)
    return {"setup_import_s": float(match[1]), "setup_warmup_s": float(match[2])} if match else {}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: each metric's spread on both sides and the pairs the
    change won, the set-up split's spread on both sides, then every run.  A
    run is {"workload", "pair", "side", "returncode", "result"} and maybe
    "setup", result the parsed last line or None and setup a setup_split."""
    record = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        value = {
            (r["pair"], r["side"], name): r["result"]["metrics"][name]["value"]
            for r in mine if r["result"] is not None
            for name in better if name in r["result"]["metrics"]
        }
        pairs = sorted({r["pair"] for r in mine})
        metrics = {}
        for name, direction in better.items():
            sides = {
                side: spread([value[p, side, name] for p in pairs if (p, side, name) in value]) for side in SIDES
            }
            both = [(value[p, "parent", name], value[p, "change", name]) for p in pairs
                    if (p, "parent", name) in value and (p, "change", name) in value]
            won = sum(c < p if direction == "lower" else c > p for p, c in both)
            metrics[name] = {**sides, "better": direction, "pairs_won": won, "pairs": len(both)}
        setups = {side: [r.get("setup", {}) for r in mine if r["side"] == side] for side in SIDES}
        diagnostics = {
            name: {side: spread([split[name] for split in setups[side] if name in split]) for side in SIDES}
            for name in ("setup_import_s", "setup_warmup_s")
        }
        record[workload] = {
            "metrics": metrics,
            "diagnostics": diagnostics,
            "runs": [
                {
                    "pair": r["pair"],
                    "side": r["side"],
                    "returncode": r["returncode"],
                    **{k: (r["result"] or {}).get(k) for k in ("correct", "attempted", "failed")},
                }
                for r in mine
            ],
        }
    return record


def last_json_line(stdout: str) -> dict | None:
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"returncode": proc.returncode, "result": last_json_line(proc.stdout), "setup": setup_split(proc.stdout)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(commit: str, into: Path) -> None:
    """Write the tree of commit into the directory into."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("number", type=int, help="the record is written to BENCH_<number>.json")
    p.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--seed", type=int, default=11)
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or float(benchmark["run_seconds"])

    parent_commit = git("rev-parse", args.parent)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        extract(parent_commit, Path(parent))
        checkouts = {"parent": Path(parent), "change": ROOT}
        for checkout in checkouts.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src/crosscap"], cwd=checkout, check=True)
        for workload in (w["name"] for w in benchmark["workloads"]):
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = run_once(checkouts[side], workload, args.seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side, **run})
                    print(f"{workload} pair {pair} {side}: exit {run['returncode']}", file=sys.stderr)

    record = {
        "parent": parent_commit,
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_edits": bool(git("status", "--porcelain"))},
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu_count": os.cpu_count(),
        "workloads": summarize(runs, directions(benchmark)),
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
