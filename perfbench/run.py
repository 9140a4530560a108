"""lzdp benchmark: closed-loop CLI workloads, one client in one thread.

    python3 perfbench/run.py --workload page_w4096 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; lzdp is imported from its ``src/``.  Each op
calls ``lzdp.cli.main`` in this process on freshly generated files and is
checked (see workloads.py).  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` every fourth block of four ops is
run under span tracing (spans.py) and the last line holds the per-layer
metrics.  The line before it is a detail document: environment, sample
counts, tail percentiles and failures.  Metric names, units and directions
come from BENCHMARK.json; METRICS.md says what each one means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PAGE_WORKLOADS = {"page_w4096": (65536, 4096), "page_unbounded": (131072, None)}
WORKLOADS = (*PAGE_WORKLOADS, "lab")
# Every page run completes at least this many ops, so the tail percentile
# has samples beyond it and the size metrics average over the same ops.
# A lab run is always its whole grid (28 rounds): every run then draws the
# same queries, which keeps its round times comparable across seeds.
MIN_OPS = 20
SETUP_REPEATS = 5
WARMUP_PAGE_BYTES = 8192
# Tracing covers blocks of four ops (all four variant/kind combinations of
# a page workload) and leaves the next block untraced, for the overhead.
TRACE_BLOCK = 4
# Untraced-op figures of page workloads carried into the traced run's output
# (zero on lab), so write/read timings and output sizes appear by name.
TRACED_DETAIL = ("write_ms_p50", "read_ms_p50", "write_mib_s", "read_mib_s",
                 "payload_bits_per_symbol", "dp_bytes_per_symbol")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - 11)
    return 100.0 * (k + 1) / n, ordered[k]


class Runner:
    """One workload: builds its ops and runs them through the CLI."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import lzdp.cli
        import workloads

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.main = lzdp.cli.main
        self.workloads = workloads
        if workload == "lab":
            self.schedule = gen.lab_schedule(seed)
            self.min_ops = self.limit = len(self.schedule)
        else:
            self.size, self.window = PAGE_WORKLOADS[workload]
            self.min_ops, self.limit = MIN_OPS, None

    def op(self, index: int):
        if self.workload == "lab":
            return self.workloads.lab_op(self.seed, "run", index, self.schedule)
        return self.workloads.page_op(self.seed, "run", index, self.size, self.window)

    def run(self, op, roots=None):
        roots = roots or {"write": self.main, "read": self.main, "query": self.main}
        if self.workload == "lab":
            return self.workloads.run_lab_op(op, self.workdir, roots)
        return self.workloads.run_page_op(op, self.workdir, roots)

    def warmup_ops(self, rep: int):
        stream = f"warmup{rep}"
        if self.workload == "lab":
            schedule = [((6, 2, None, rep % 2 == 1), 4)]
            return [self.workloads.lab_op(self.seed, stream, 0, schedule, pair_bytes=512, excerpt_bytes=16)]
        return [self.workloads.page_op(self.seed, stream, i, WARMUP_PAGE_BYTES, self.window) for i in range(4)]


def measure_setup(runner: Runner, rep: int) -> tuple[float, list[str]]:
    """Fresh-interpreter import of the CLI, generation, warm-up ops."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import lzdp.cli", str(SRC)],
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    failures = []
    for op in runner.warmup_ops(rep):
        failures += runner.run(op).failures
    return time.perf_counter() - t0, failures


def _op_seconds(result) -> float:
    return sum(result.seconds.values())


def _mib_s(results, kind) -> float:
    total = sum(r.seconds[kind] for r in results)
    return sum(r.n for r in results) / 2**20 / total if total else 0.0


def _sizes(results) -> dict[str, float]:
    """Per-symbol output sizes over the first MIN_OPS ops, a fixed set.

    Failed ops carry no sizes and are left out (the run is then not correct).
    """
    first = [r for r in results[:MIN_OPS] if r.payload_bits]
    dp_ops = [r for r in first if r.dp_bytes]
    return {
        "payload_bits_per_symbol": sum(r.payload_bits for r in first) / max(1, sum(r.n for r in first)),
        "dp_bytes_per_symbol": sum(r.dp_bytes for r in dp_ops) / max(1, sum(r.n for r in dp_ops)),
    }


def _kind_stats(results, kind: str) -> dict:
    ms = [1000 * r.seconds[kind] for r in results]
    pct, value = tail(ms)
    return {f"{kind}_ms_p50": statistics.median(ms), f"{kind}_ms_tail": value,
            f"{kind}_tail_percentile": pct, f"{kind}_samples": len(ms)}


def run_ops(runner: Runner, seconds: float, tracer=None) -> list[tuple[bool, object]]:
    """The timed closed loop; returns (traced, OpResult) per op."""
    if tracer is not None:
        traced_roots = {kind: tracer.wrap(f"cli.{kind}", runner.main) for kind in ("write", "read", "query")}
    seen = set()
    records = []
    deadline = time.perf_counter() + seconds
    index = 0
    while (runner.limit is None or index < runner.limit) and (
        index < runner.min_ops or time.perf_counter() < deadline
    ):
        op = runner.op(index)
        digest = hashlib.sha256(repr(op).encode()).digest()
        if digest in seen:
            raise RuntimeError(f"op {index} repeats an earlier input")
        seen.add(digest)
        traced = tracer is not None and (index // TRACE_BLOCK) % 2 == 0
        if traced:
            tracer.current_op = index
            tracer.install()
            try:
                result = runner.run(op, traced_roots)
            finally:
                tracer.uninstall()
        else:
            result = runner.run(op)
        records.append((traced, result))
        index += 1
    return records


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "lzdp" / "__init__.py").is_file():
        print(f"error: no lzdp sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lzdp

    if not Path(lzdp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported lzdp from {lzdp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans

    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        setups, warm_failures = [], []
        for rep in range(SETUP_REPEATS):
            seconds, failures = measure_setup(runner, rep)
            setups.append(seconds)
            warm_failures += failures
        tracer = spans.Tracer() if args.trace else None
        gc.collect()
        records = run_ops(runner, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for _, r in records]
    plain = [r for traced, r in records if not traced]
    failed = sum(1 for r in results if r.failures)
    op_ms = [1000 * _op_seconds(r) for r in plain]
    pct, op_tail = tail(op_ms)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, in-process CLI calls",
        "environment": environment(),
        "attempted": len(results),
        "failed": failed,
        "error_rate": failed / len(results),
        "failures": [f for r in results for f in r.failures][:10],
        "warmup_failures": warm_failures[:10],
        "setup_samples_s": setups,
        "op_samples": len(op_ms),
        "op_tail_percentile": pct,
    }
    if args.workload in PAGE_WORKLOADS:
        detail.update(_sizes(results))
        for kind in ("write", "read"):
            detail.update(_kind_stats(plain, kind))
            detail[f"{kind}_mib_s"] = _mib_s(plain, kind)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": op_tail,
            "ops_per_s": len(op_ms) / (sum(op_ms) / 1000),
            "peak_rss_mib": peak_rss_mib,
        }
    else:
        traced_ms = [1000 * _op_seconds(r) for traced, r in records if traced]
        values = spans.summarize(tracer)
        values["trace.overhead_share"] = statistics.fmean(traced_ms) / statistics.fmean(op_ms) - 1
        values.update({key: detail.get(key, 0.0) for key in TRACED_DETAIL})
        spans_file = WORK / f"spans-{args.workload}.npz"
        tracer.save(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not warm_failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
