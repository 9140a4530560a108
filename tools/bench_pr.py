"""Parent-versus-change benchmark record: writes BENCH_<pr>.json.

    python3 tools/bench_pr.py --pr 14 --parent HEAD

Runs the benchmark (``perfbench/run.py``, unchanged, at BENCHMARK.json's
``run_seconds``) on a fresh export of the parent commit and on the working
tree.  Each (seed, workload) pair runs both sides back to back, and the side
that goes first alternates from pair to pair.  Untraced runs cover seeds
1-10 on every workload; traced runs cover seeds 1-3 on the page workloads.
Last, the tier-1 suite runs once per side, parent first.  The output keeps
each side's runs with their median and quartiles, the per-seed output sizes,
the traced per-layer figures below, the environment and the ``src/`` line
counts.  The export goes to a temporary directory (``TMPDIR``) and is
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)
PAGE_WORKLOADS = ("page_w4096", "page_unbounded")
SIZES = ("payload_bits_per_symbol", "dp_bytes_per_symbol")
TRACED = (
    "lz77.compress.ns_per_symbol",
    "lz77.compress.share_of_write",
    "lz77.compress.busy_s",
    "core.payload_bits.ns_per_block",
    "core.deserialize_blocks.ns_per_block",
    "dp.read_padded_container.ns_per_block",
    "dp.dp_pad.busy_s",
    "codec.share_of_library",
    *SIZES,
    "write_ms_p50",
    "read_ms_p50",
)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run; returns (detail, result) from its last two lines."""
    argv = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, argv)],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    return json.loads(out[-2])["detail"], json.loads(out[-1])


def run_pair(sides: dict[str, Path], first: str, workload, seed, seconds, trace):
    results = {}
    for side in sorted(sides, key=lambda side: side != first):
        results[side] = run_bench(sides[side], workload, seed, seconds, trace)
        print(f"{workload} seed {seed} trace {trace} {side} done", file=sys.stderr, flush=True)
    return results


def spread(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": sorted(runs)}


def tier1(checkout: Path) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-s"],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"},
    ).stdout
    record = {"passed": int(m.group(1)) if (m := re.search(r"(\d+) passed", out)) else 0,
              "wall_s": round(time.perf_counter() - t0, 2)}
    for num, secs in re.findall(r"criterion (\d+) \(.*?\): \w+ \[([\d.]+)s\]", out):
        record[f"criterion_{num}_s"] = float(secs)
    return record


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    p.add_argument("--change", default="", help="one line naming the change")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    export = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(export)], input=archive, check=True)
        sides = {"parent": export, "change": ROOT}
        untraced = {w: {s: [] for s in sides} for w in workloads}
        for i, (seed, workload) in enumerate((s, w) for s in SEEDS for w in workloads):
            pair = run_pair(sides, "parent" if i % 2 == 0 else "change", workload, seed, seconds, 0)
            for side, result in pair.items():
                untraced[workload][side].append((seed, *result))
        traced = {w: {s: [] for s in sides} for w in PAGE_WORKLOADS}
        for i, (seed, workload) in enumerate((s, w) for s in TRACE_SEEDS for w in PAGE_WORKLOADS):
            pair = run_pair(sides, "parent" if i % 2 == 0 else "change", workload, seed, seconds, 1)
            for side, result in pair.items():
                traced[workload][side].append((seed, *result))
        tier1_runs = {side: tier1(path) for side, path in sides.items()}
    finally:
        shutil.rmtree(export, ignore_errors=True)

    doc = {
        "change": args.change,
        "method": (
            f"perfbench/run.py unchanged, --seconds {seconds}, run by tools/bench_pr.py on a fresh "
            f"export of {args.parent} (parent) and on the working tree (change); each (seed, workload) "
            "pair runs both sides back to back, alternating which side goes first; medians and "
            "quartiles are over the seeds listed per side. trace_0 ran seeds 1-10 on every workload "
            "(seeds_1_3_median repeats the medians of seeds 1-3 alone); trace_1 ran seeds 1-3 on the "
            "page workloads. The tier-1 suite ran once per side after all benchmark runs, parent "
            "first; criterion times are the ones the suite prints."
        ),
        "environment": {},
        "src_lines": {},
        "trace_0": {},
        "trace_1": {},
        "tier1": tier1_runs,
    }
    for side, runs in untraced[workloads[0]].items():
        env = runs[0][1]["environment"]
        doc["environment"] = {key: env[key] for key in ("python", "numpy", "nproc")}
        doc["src_lines"][side] = env["src_lines"]
    doc["environment"]["cpu"] = cpu_model()
    for workload, by_side in untraced.items():
        entry = {}
        for side, runs in by_side.items():
            record = {m: spread([r["metrics"][m]["value"] for _, _, r in runs]) for m in metrics}
            results = [r for _, _, r in runs]
            record.update(seeds=[s for s, _, _ in runs], failed=sum(r["failed"] for r in results),
                          attempted=sum(r["attempted"] for r in results),
                          correct=all(r["correct"] for r in results))
            if workload in PAGE_WORKLOADS:
                record.update({k: {str(s): d[k] for s, d, _ in runs} for k in SIZES})
            entry[side] = record
        values = {side: {m: [r["metrics"][m]["value"] for _, _, r in runs] for m in metrics}
                  for side, runs in by_side.items()}
        for m in ("op_ms_p50", "peak_rss_mib"):
            medians = [entry[side][m]["median"] for side in ("parent", "change")]
            entry[f"{m}_change_vs_parent"] = medians[1] / medians[0] - 1
        entry["pairs_change_better"] = {
            m: sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(values["parent"][m], values["change"][m]))
            for m, better in metrics.items()
        }
        entry["pairs"] = len(values["parent"]["op_ms_p50"])
        entry["seeds_1_3_median"] = {
            m: {side: statistics.median(values[side][m][:3]) for side in by_side}
            for m in ("op_ms_p50", "peak_rss_mib")
        }
        doc["trace_0"][workload] = entry
    for workload, by_side in traced.items():
        entry = {side: {k: {str(s): r["metrics"][k]["value"] for s, _, r in runs} for k in TRACED}
                 | {"failed": sum(r["failed"] for _, _, r in runs)}
                 for side, runs in by_side.items()}
        same = all(entry["parent"][k] == entry["change"][k] for k in SIZES)
        entry["payload_and_dp_bytes_equal"] = same
        doc["trace_1"][workload] = entry

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
