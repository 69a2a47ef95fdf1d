"""crosscap benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload germ_reports --seed 1 --seconds 32 --trace 0

Run from the root of a crosscap checkout; the package is imported from
its ``src`` directory.  The run times seven imports of crosscap in fresh
interpreters, sets up seven times (seeded inputs and one warm-up
operation), reports the sum of the two medians as ``setup_s``, then runs
whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output against the independent oracles, and prints
the metrics, ending with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` rounds alternate between untraced and traced, and the
per-layer metrics (per traced round) replace the end-to-end ones; the
spans are written to ``.perfbench/trace-<workload>-seed<n>.json``.

Times are rescaled to a nominal machine speed.  While an operation runs,
SIGALRM interrupts it every SAMPLE_EVERY_S to time a short, fixed
calibration kernel; the kernel's own time is taken out of the
operation's, and the operation's time is multiplied by NOMINAL_KERNEL_S
over the mean kernel time.  The 2-core virtual machine of the reference
figures in README.md changes speed by up to a factor of two within
seconds; raw times are printed alongside.
"""
import os

# one BLAS thread: the load must come from this one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
# set-up repeat i draws from default_rng([seed, SETUP_STREAM + i]); rounds
# use [seed, round], so no set-up input is seen again in the run
SETUP_STREAM = 1_000_000
# what a crosscap process pays before its first operation: numpy and every
# crosscap module, as the console script loads them; then the child's own
# calibration samples, since the child may run on the other core
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import crosscap.cli\n"
    "t = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import numpy, run\n"
    "print(t, sum(run.calibration_kernel(numpy) for _ in range(5)) / 5)\n"
)
# calibration_kernel's time on the reference machine when it runs at full speed
NOMINAL_KERNEL_S = 0.0015
SAMPLE_EVERY_S = 0.05

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "light_ms": "ms",
    "heavy_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("germ_reports", "family_sweep", "off_origin"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import crosscap from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "crosscap", "__init__.py")):
        sys.exit(f"no crosscap sources under {SRC}: run from a crosscap checkout")
    sys.path.insert(0, SRC)
    import crosscap

    if os.path.dirname(os.path.abspath(crosscap.__file__)) != os.path.join(SRC, "crosscap"):
        sys.exit(f"imported crosscap from {crosscap.__file__}, not from {SRC}")


def fresh_import_s() -> tuple[float, float]:
    """(raw, nominal) seconds a fresh interpreter takes to import numpy and
    crosscap.cli, scaled by calibration samples the child takes right after.

    The child runs to its end before this returns, so the load stays one
    process at a time.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, here], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    raw, kernel = map(float, done.stdout.split()[-2:])
    return raw, raw * NOMINAL_KERNEL_S / kernel


def calibration_kernel(np) -> float:
    """Fixed interpreter and small-array work, the mix crosscap's jets do; seconds."""
    t0 = time.perf_counter()
    x = np.zeros((7, 7))
    acc = 0.0
    for i in range(600):
        y = x + i
        acc += float(y[1:, 1:].sum()) * 0.5
        acc += len({"a": i, "b": [i, i + 1]}["b"])
    return time.perf_counter() - t0


class Record(NamedTuple):
    round: int
    kind: str
    items: int
    latency: str | None
    per: int
    fault: str | None
    raw_s: float  # wall time less the calibration samples taken inside it
    nominal_s: float
    wall_s: float  # wall time, the clock of the trace spans
    failure: str | None


class Runner:
    def __init__(self, np, workload, seed, work):
        self.np, self.workload, self.seed, self.work = np, workload, seed, work
        self.records: list[Record] = []  # one per operation; its index is the op id
        self.samples: list[float] = []
        self.sampling = False
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, signum, frame):
        if self.sampling:
            self.samples.append(calibration_kernel(self.np))

    def build(self, stream, tag):
        rng = self.np.random.default_rng([self.seed, stream])
        return self.workload.build_round(rng, self.work, tag)

    def clear_work(self):
        for name in os.listdir(self.work):
            os.remove(os.path.join(self.work, name))

    def timed(self, fn):
        """(raw seconds, nominal per raw second, wall seconds, result) of fn().

        The calibration samples taken while fn runs, plus one right after,
        give the machine's speed over fn's whole run; their own time is
        not fn's and is left out of the raw seconds.
        """
        self.samples = []
        self.sampling = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            self.sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
        inside = sum(self.samples)
        speed = statistics.fmean(self.samples + [calibration_kernel(self.np)])
        return wall - inside, NOMINAL_KERNEL_S / speed, wall, out

    @staticmethod
    def attempt(op, tracer=None):
        if tracer is not None:
            tracer.active = True
        try:
            return op.run(), None
        except Exception as exc:  # a traceback escaping the CLI is a failure, not a crash
            return None, f"raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.active = False

    def run_round(self, rnd, ops, tracer=None):
        for op in ops:
            if tracer is not None:
                tracer.op = len(self.records)
            raw, factor, wall, (out, failure) = self.timed(lambda: self.attempt(op, tracer))
            if failure is None:
                failure = op.check(out)
            self.records.append(Record(rnd, op.kind, op.items, op.latency, op.per, op.fault,
                                       raw, raw * factor, wall, failure))
        self.clear_work()
        # Spherical curves hold their RK4 nodes in a reference cycle, so only
        # the cyclic collector frees them; collecting once per round keeps
        # peak_rss_mb independent of how many rounds a run fits.
        gc.collect()

    def round_walls(self, rounds, field="nominal_s"):
        return [sum(getattr(r, field) for r in self.records if r.round == rnd) for rnd in rounds]


def median_ms(records, cls, field="nominal_s"):
    """Median latency of one class of operations, per unit of ``per``."""
    return 1000.0 * statistics.median(getattr(r, field) / r.per for r in records if r.latency == cls)


def items_per_s(records, field="nominal_s"):
    """Output units over the time of the operations that produce them."""
    ops = [r for r in records if r.items]
    return sum(r.items for r in ops) / sum(getattr(r, field) for r in ops)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]

    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(np, workload, args.seed, work)

        # set-up: the import in a fresh interpreter, then seeded inputs and
        # oracles for one round plus one warm-up operation, each from a
        # stream of its own
        imports = [fresh_import_s() for _ in range(IMPORT_REPEATS)]
        setup = []
        for i in range(SETUP_REPEATS):
            raw, factor, _, _ = runner.timed(
                lambda i=i: runner.attempt(runner.build(SETUP_STREAM + i, f"s{i}")[0]))
            setup.append((raw, raw * factor))
            runner.clear_work()

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        start = time.perf_counter()
        rnd = 0
        traced_rounds, plain_rounds = [], []
        while True:
            ops = runner.build(rnd, f"r{rnd}")
            traced = tracer is not None and rnd % 2 == 1
            if traced:
                tracer.install()
            try:
                runner.run_round(rnd, ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_rounds if traced else plain_rounds).append(rnd)
            rnd += 1
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or rnd % 2 == 0):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r.failure is not None]
    unexpected = [r for r in failed if r.fault is None]
    for r in unexpected[:10]:
        print(f"CHECK FAILED {args.workload} {r.kind}: {r.failure}", file=sys.stderr)
    faults = sorted({r.fault for r in failed if r.fault is not None})

    plain = [r for r in records if r.round in plain_rounds]
    e2e, raw = {}, {}
    for out, field in ((e2e, "nominal_s"), (raw, "raw_s")):
        out["wall_s"] = statistics.median(runner.round_walls(plain_rounds, field))
        out["items_per_s"] = items_per_s(plain, field)
        out["light_ms"] = median_ms(plain, "light", field)
        out["heavy_ms"] = median_ms(plain, "heavy", field)
    for out, col in ((raw, 0), (e2e, 1)):
        out["setup_s"] = statistics.median(t[col] for t in imports) + statistics.median(
            t[col] for t in setup
        )
    e2e["peak_rss_mb"] = raw["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    print(f"workload {args.workload}  seed {args.seed}  rounds {rnd}  "
          f"attempted {len(records)}  failed {len(failed)}")
    for fault in faults:
        print(f"  known fault counted as failed: {fault}")
    print(f"  set-up medians (nominal): import {statistics.median(t[1] for t in imports):.4f} s, "
          f"inputs and warm-up {statistics.median(t[1] for t in setup):.4f} s")
    print(f"  {'metric':<12} {'nominal':>12} {'raw':>12}")
    for name, unit in END_TO_END.items():
        line = f"  {name:<12} {e2e[name]:12.6g} {raw[name]:12.6g} {unit}"
        alias = workload.aliases.get(name)
        if alias:
            label, alias_unit, convert = alias
            value = convert(e2e[name]) if convert else e2e[name]
            line += f"    ({label} = {value:.6g} {alias_unit})"
        print(line)

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        scale = {i: r.nominal_s / r.wall_s for i, r in enumerate(records) if r.round in traced_rounds}
        layer = tracer.layer_metrics(scale, len(traced_rounds))
        layer["trace.overhead_s"] = statistics.median(runner.round_walls(traced_rounds)) - e2e["wall_s"]
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed}, [r.kind for r in records], scale)
        print(f"  spans written to {os.path.relpath(path, ROOT)}; per traced round:")
        metrics = {}
        for name, value in layer.items():
            unit = "s" if name.endswith("_s") else ("B" if name.endswith("bytes_out") else "count")
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<36} {value:14.6g} {unit}")

    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
