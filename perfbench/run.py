"""recset benchmark: closed-loop CLI jobs on seeded documents.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD NEW

One client, one process, one job at a time, no threads.  Each job is a
`recset` command line run in-process through `recset.cli.main(argv)` with
stdout captured, so it takes the path a user's command takes (cli ->
fileformat -> algorithms) minus interpreter start-up.  The job list of the
workload is run in whole passes until `--seconds` have elapsed; every job's
output is then checked (see checks.py).  Run from the root of a checkout: the
program is imported from `src/` there, and documents and traces are written
under `.perfbench_out/`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  A `perfbench-record:` line before it
carries the same metrics with the workload, seed and input manifest, which is
what `--compare` reads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# address-space ceiling for this process: a blow-up becomes a MemoryError,
# which fails the job instead of drawing the kernel's OOM killer
MEMORY_CEILING = 2 << 30

import checks  # noqa: E402
import workloads  # noqa: E402


def set_memory_ceiling() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_CEILING if hard == resource.RLIM_INFINITY else min(MEMORY_CEILING, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def import_recset():
    for name in [m for m in sys.modules if m == "recset" or m.startswith("recset.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("recset")
    return importlib.import_module("recset.cli")


def setup(name: str, seed: int, directory: Path):
    """Import recset, generate the workload and write its documents."""
    start = perf_counter()
    import_recset()
    wl = workloads.build(name, seed)
    directory.mkdir(parents=True)
    for doc_name, doc in wl.docs.items():
        (directory / f"{doc_name}.aut").write_bytes(workloads.doc_bytes(doc))
    return perf_counter() - start, wl


class Runner:
    """Runs passes over a workload's jobs and keeps one copy of each distinct outcome."""

    def __init__(self, wl, directory: Path):
        rel = os.path.relpath(directory, Path.cwd())
        self.wl = wl
        self.argvs = [wl.argv(job, rel) for job in wl.jobs]
        self.outcomes: dict = {}      # (job index, Outcome) -> occurrences
        self.latencies: list = []
        self.per_job: dict = {}       # job index -> latencies
        self.jobs_run = 0

    def run_pass(self, tracer=None) -> float:
        """Run the job list once; returns the wall time of the loop."""
        main = sys.modules["recset.cli"].main
        # a command-line process holds none of the harness's objects: keep the
        # documents and results out of the collector's way, as they would be
        gc.collect()
        gc.freeze()
        start = perf_counter()
        for index, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.start_job(self.jobs_run)
            out, err = io.StringIO(), io.StringIO()
            rc = exc = None
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = main(argv)
            except MemoryError:
                exc = "memory"
            except Exception as e:  # an escaped exception is a failed job, not a crash
                exc = f"{type(e).__name__}: {e}"
            elapsed = perf_counter() - t0
            self.latencies.append(elapsed)
            self.per_job.setdefault(index, []).append(elapsed)
            self.jobs_run += 1
            key = (index, checks.Outcome(rc, out.getvalue(), err.getvalue(), exc))
            self.outcomes[key] = self.outcomes.get(key, 0) + 1
        return perf_counter() - start

    def slowest(self, count: int = 3) -> list[str]:
        ranked = sorted(self.per_job.items(), key=lambda kv: -statistics.median(kv[1]))
        return [f"slowest: {statistics.median(times) * 1000:.1f} ms `{' '.join(self.wl.jobs[i].argv)}`"
                for i, times in ranked[:count]]

    def check(self):
        """Returns (correct, failed, failure lines)."""
        correct, failed, lines = True, 0, []
        for (index, outcome), times in sorted(self.outcomes.items(), key=lambda kv: kv[0][0]):
            job = self.wl.jobs[index]
            kind, reason = checks.check(job, outcome, self.wl.docs, self.wl.metas)
            if kind is None:
                continue
            failed += times
            correct = correct and kind not in checks.INCORRECT
            lines.append(f"failure: job {index} `{' '.join(job.argv)}` x{times}: {kind}: {reason}")
        return correct, failed, lines


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def print_manifest(wl) -> None:
    for key, value in wl.manifest().items():
        print(f"manifest.{key}: {json.dumps(value)}")


def emit(args, wl, correct, attempted, failed, report_lines, metrics, extra) -> None:
    for line in report_lines:
        print(line)
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name}: {value} {unit}")
    as_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "digest": wl.manifest()["digest"], "metrics": as_json}
    print("perfbench-record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": as_json}))


def measure(args, work: Path) -> None:
    times = []

    def timed_setup():
        gc.collect()  # every set-up starts from the same collector state
        elapsed, built = setup(args.workload, args.seed, work / f"setup{len(times)}")
        times.append(elapsed)
        return built

    wl = timed_setup()
    print_manifest(wl)
    runner = Runner(wl, work / "setup0")
    passes, wall = 0, 0.0
    while passes == 0 or wall < args.seconds:
        wall += runner.run_pass()
        passes += 1
        # the other set-ups are spread over the run, so that they sample the
        # machine over the same stretch of time as the jobs do
        while len(times) < SETUP_REPEATS * min(1.0, wall / max(args.seconds, 1e-9)):
            timed_setup()
    while len(times) < SETUP_REPEATS:
        timed_setup()
    correct, failed, lines = runner.check()
    lines += runner.slowest()
    lat = runner.latencies
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "jobs_per_s": (len(lat) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (quantile(lat, 9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "error_rate": (failed / len(lat), "ratio"),
        "latency_samples": (len(lat), "count"),
        "passes": (passes, "count"),
        "loop_wall_s": (wall, "s"),
    }
    emit(args, wl, correct, len(lat), failed, lines, metrics, extra)


def measure_traced(args, work: Path) -> None:
    """Per-layer metrics.  After one warm-up pass, untraced and traced passes
    alternate for `--seconds`, so drift in machine speed hits both sides of
    `trace.overhead_ratio` alike."""
    from tracing import Tracer
    _, wl = setup(args.workload, args.seed, work / "setup")
    print_manifest(wl)
    runner = Runner(wl, work / "setup")
    runner.run_pass()
    tracer = Tracer()
    tracer.install()
    plain_wall = traced_wall = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < args.seconds:
        plain_wall += runner.run_pass()
        tracer.enabled = True
        traced_wall += runner.run_pass(tracer)
        tracer.enabled = False
        passes += 1
    correct, failed, lines = runner.check()
    metrics = {name: (float(value), unit) for name, (value, unit) in tracer.metrics(passes).items()}
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans)
    extra = {"traced_passes": (passes, "count"), "spans_file": (os.path.relpath(spans), "path")}
    emit(args, wl, correct, runner.jobs_run, failed, lines, metrics, extra)


# -- compare -------------------------------------------------------------------

def load_records(target: str) -> list[dict]:
    path = Path(target)
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("perfbench-record: "):
                records.append(json.loads(line[len("perfbench-record: "):]))
    return records


def verdict(old: list, new: list, better: str, bound) -> tuple[str, float]:
    """better / same / worse / unresolved for one metric of one workload.

    `change` is the relative worsening of the median.  A gain needs the new
    median to beat the old one by more than the old runs' own quartile spread
    and nine tenths of all (old, new) pairs to favour the new run.  A loss is
    a median worse by more than the bound; where the spread of either side is
    wider than the bound the result is unresolved, unless every new run is
    worse than every old one.
    """
    sign = 1 if better == "lower" else -1
    mo, mn = statistics.median(old), statistics.median(new)
    if mo == 0:
        return ("same" if mn == 0 else "unresolved"), 0.0
    change = sign * (mn - mo) / abs(mo)

    def spread(values):
        if len(values) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0

    noise = max(spread(old), spread(new))
    pairs = [(o, n) for o in old for n in new]
    wins = sum(sign * (n - o) < 0 for o, n in pairs) / len(pairs)
    losses = sum(sign * (n - o) > 0 for o, n in pairs) / len(pairs)
    if wins >= 0.9 and -change > spread(old):
        return "better", change
    if bound is None:
        if losses >= 0.9 and change > spread(old):
            return "worse", change
        return ("same" if abs(change) <= noise else "unresolved"), change
    if noise > bound:
        return ("worse" if losses == 1.0 else "unresolved"), change
    return ("worse" if change > bound else "same"), change


def compare(old_target: str, new_target: str) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    old, new = load_records(old_target), load_records(new_target)
    if not old or not new:
        print("error: no perfbench-record lines found", file=sys.stderr)
        return 2

    def series(records):
        out: dict = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    a, b = series(old), series(new)

    def summary(values):
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}] n={len(values)}"

    print("workload metric: old median [q1, q3] | new median [q1, q3] | change | verdict")
    for key in sorted(set(a) & set(b)):
        better, bound = rules.get(key[1], ("lower", None))
        result, change = verdict(a[key], b[key], better, bound)
        bound_text = "none" if bound is None else f"{bound:.0%}"
        print(f"{key[0]} {key[1]}: {summary(a[key])} | {summary(b[key])} | "
              f"{change:+.1%} worse (bound {bound_text}) | {result}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="files or directories holding the stdout of earlier runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "recset" / "__init__.py").is_file():
        print(f"error: no recset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    set_memory_ceiling()
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        (measure_traced if args.trace else measure)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
