"""Tests of the benchmark itself: inputs, output checks, tracing, contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import lzdp.cli  # noqa: E402
from lzdp import CompressionConfig, Text, compress, serialize_blocks  # noqa: E402

MAIN = {"write": lzdp.cli.main, "read": lzdp.cli.main, "query": lzdp.cli.main}


def token_share(data: bytes) -> float:
    """Share of non-space bytes outside vocabulary words and markup names."""
    vocab = set(gen._WORDS) | set(gen._TAGS) | set(gen._ATTRS)
    text = data.decode("ascii")
    for ch in '<>"=':
        text = text.replace(ch, " ")
    plain = sum(len(piece) for piece in text.split() if piece.strip("./") in vocab)
    return 1.0 - plain / len(text.replace(" ", ""))


def test_same_seed_same_bytes():
    assert gen.page(7, "run", 3, 4096) == gen.page(7, "run", 3, 4096)
    assert gen.neighbor_pair(7, "run", 3, 512) == gen.neighbor_pair(7, "run", 3, 512)
    assert gen.excerpt(7, "run", 3, 64) == gen.excerpt(7, "run", 3, 64)
    assert gen.lab_schedule(7) == gen.lab_schedule(7)
    assert gen.page(7, "run", 3, 4096) != gen.page(8, "run", 3, 4096)


def test_no_input_repeats_within_a_run():
    pages = {gen.page(1, "run", i, 2048) for i in range(200)}
    assert len(pages) == 200
    rounds = [workloads.lab_op(1, "run", i, gen.lab_schedule(1)) for i in range(len(gen.lab_schedule(1)))]
    assert len({(r.w, r.w_prime) for r in rounds}) == len(rounds)
    assert len({r.excerpt for r in rounds}) == len(rounds)
    assert len({r.global_query for r in rounds}) == len(rounds)
    assert len({r.m for r in rounds}) == len(rounds)
    assert len(rounds) >= run.MIN_OPS


def test_page_shape():
    data = gen.page(3, "run", 0, 65536)
    assert len(data) == 65536
    assert 0.25 < token_share(data) < 0.35
    w, w_prime = gen.neighbor_pair(3, "run", 0, 2048)
    assert len(w) == len(w_prime) == 2048
    assert sum(a != b for a, b in zip(w, w_prime)) == 1
    assert len(gen.excerpt(3, "run", 0, 64)) == 64


def test_page_op_passes(tmp_path):
    for index in range(4):
        op = workloads.page_op(5, "run", index, 4096, 1024)
        result = workloads.run_page_op(op, tmp_path, MAIN)
        assert result.failures == []
        assert result.payload_bits > 0
        assert (result.dp_bytes > 0) == op.dp


def test_corrupted_restore_is_a_failure(tmp_path):
    def corrupting_read(argv):
        code = lzdp.cli.main(argv)
        restored = Path(argv[-1])
        data = bytearray(restored.read_bytes())
        data[len(data) // 2] ^= 0x01
        restored.write_bytes(bytes(data))
        return code

    op = workloads.page_op(5, "run", 0, 4096, None)
    result = workloads.run_page_op(op, tmp_path, {**MAIN, "read": corrupting_read})
    assert any("restored bytes differ" in f for f in result.failures)


def test_revealed_pad_is_a_failure(tmp_path):
    op = workloads.page_op(5, "run", 2, 4096, None)
    assert op.dp
    revealing = {**MAIN, "write": lambda argv: lzdp.cli.main(argv + ["--reveal-pad"])}
    result = workloads.run_page_op(op, tmp_path, revealing)
    assert any("documented" in f for f in result.failures)


def test_nonzero_exit_and_false_pass_are_failures():
    assert workloads.check_call("x", workloads.Call(1, {}, 0.0, "boom"))
    assert workloads.check_call("x", workloads.Call(0, {"checks": [{"pass": False}]}, 0.0))
    assert not workloads.check_call("x", workloads.Call(0, {"checks": [{"pass": True}]}, 0.0))


def test_sensitivity_above_bound_is_a_failure():
    doc = {"n": 12, "k": 2, "W": 12, "variant": "non_overlapping", "bits": 10**6}
    assert workloads._check_sensitivity("global", doc, 12, 2, None, False)
    assert not workloads._check_sensitivity("global", {**doc, "bits": 18}, 12, 2, None, False)


def test_lab_op_passes(tmp_path):
    op = workloads.lab_op(5, "run", 0, [((6, 2, 3, True), 4)], pair_bytes=256, excerpt_bytes=12)
    result = workloads.run_lab_op(op, tmp_path, MAIN)
    assert result.failures == []


def test_tail_percentile():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(20))) == (50.0, 9)


def test_tracer_restores_and_nests():
    import lzdp.core
    import lzdp.lz77

    original = lzdp.core.payload_bits
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lzdp.core.payload_bits is not original
        file = lzdp.lz77.compress(Text.from_bytes(b"abracadabra" * 20), CompressionConfig())
        lzdp.core.serialize_blocks(file)
    finally:
        tracer.uninstall()
    assert lzdp.core.payload_bits is original
    assert compress is lzdp.lz77.compress and serialize_blocks is lzdp.core.serialize_blocks

    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["lz77.compress", "core.serialize_blocks", "core.payload_bits"]
    assert a["parent"].tolist() == [-1, -1, 1]
    out = spans.summarize(tracer)
    serialize_s = (a["end"][1] - a["start"][1]) / 1e9
    assert out["core.busy_s"] == pytest.approx(serialize_s)
    assert out["core.self_s"] == pytest.approx(serialize_s)
    assert out["lz77.compress.calls"] == 1
    assert out["core.payload_bits.ns_per_block"] > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(spans.summarize(spans.Tracer())) | {"trace.overhead_share"} | set(run.TRACED_DETAIL)
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_contract_run_and_refusal(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "page_w4096", "--seed", "3", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    refused = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    assert refused.returncode != 0
    assert "correct" not in refused.stdout
