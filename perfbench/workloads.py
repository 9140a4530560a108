"""The benchmark's ops and the checks behind ``failed``.

A page op is one CLI round trip on one fresh page message: a write call
(``compress`` or ``dp-compress``) then a read call (``decompress`` or
``dp-decompress``).  A lab op is one calibration round of four CLI calls:
``analyze``, local and global ``sensitivity``, and ``quinstr --verify``.
Each call goes through ``lzdp.cli.main`` in this process; only the call
itself is timed.  An op fails when any check on any of its calls fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from lzdp.core import Variant
from lzdp.dp import gs_upper_bound

import gen

# dp-compress is private when epsilon = 1 and delta = 1e-6; gs is left to
# the CLI's closed-form default.
DP_FLAGS = ["--epsilon", "1", "--delta", "1e-6"]
# The documented dp-compress output.  Anything else, such as "pad", could
# expose the drawn pad length.
DP_COMPRESS_FIELDS = {"payload_bits", "total_bits", "k", "gs_bits"}

PAIR_BYTES = 2048
EXCERPT_BYTES = 64
BYTE_ALPHABET = 256


@dataclass
class Call:
    code: object
    doc: object
    seconds: float
    error: str = ""


@dataclass
class OpResult:
    seconds: dict[str, float]
    failures: list[str] = field(default_factory=list)
    n: int = 0
    payload_bits: int = 0
    dp_bytes: int = 0


def call(main, argv: list[str]) -> Call:
    """Run one CLI call in-process, timing only ``main`` itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the op; the run goes on
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    try:
        doc = json.loads(out.getvalue())
    except json.JSONDecodeError:
        doc = None
    return Call(code, doc, seconds, err.getvalue().strip())


def all_pass(doc) -> bool:
    """True when every "pass" flag anywhere in the document is true."""
    if isinstance(doc, dict):
        if "pass" in doc and doc["pass"] is not True:
            return False
        return all(all_pass(v) for v in doc.values())
    if isinstance(doc, list):
        return all(all_pass(v) for v in doc)
    return True


def check_call(name: str, c: Call) -> list[str]:
    """Failures common to every call: exit code, JSON output, pass flags."""
    if c.code != 0:
        return [f"{name}: exit {c.code} {c.error}".strip()]
    if not isinstance(c.doc, dict):
        return [f"{name}: no JSON document on stdout"]
    if not all_pass(c.doc):
        return [f"{name}: a pass flag is false"]
    return []


def _variant(self_ref: bool) -> Variant:
    return Variant.SELF_REFERENCING if self_ref else Variant.NON_OVERLAPPING


@dataclass(frozen=True)
class PageOp:
    index: int
    data: bytes
    window: int | None
    self_ref: bool
    dp: bool
    dp_seed: int


def page_op(seed: int, stream: str, index: int, size: int, window: int | None) -> PageOp:
    """Op ``index``: the LZ variant alternates, and so does plain vs dp."""
    return PageOp(
        index=index,
        data=gen.page(seed, stream, index, size),
        window=window,
        self_ref=index % 2 == 1,
        dp=(index // 2) % 2 == 1,
        dp_seed=seed * 1_000_003 + index,
    )


def run_page_op(op: PageOp, workdir: Path, roots: dict) -> OpResult:
    src, packed, back = workdir / "in.bin", workdir / "packed.lz", workdir / "back.bin"
    src.write_bytes(op.data)
    for stale in (packed, back):
        stale.unlink(missing_ok=True)
    flags = [] if op.window is None else ["--window", str(op.window)]
    if op.self_ref:
        flags.append("--self-ref")
    if op.dp:
        write_argv = ["dp-compress", str(src), str(packed), *flags, *DP_FLAGS, "--seed", str(op.dp_seed)]
        read_argv = ["dp-decompress", str(packed), str(back)]
    else:
        write_argv = ["compress", str(src), str(packed), *flags]
        read_argv = ["decompress", str(packed), str(back)]
    w = call(roots["write"], write_argv)
    r = call(roots["read"], read_argv)

    n = len(op.data)
    result = OpResult(seconds={"write": w.seconds, "read": r.seconds}, n=n)
    failures = check_call(write_argv[0], w) + check_call(read_argv[0], r)
    if not failures:
        if op.dp and set(w.doc) != DP_COMPRESS_FIELDS:
            failures.append(f"dp-compress printed {sorted(w.doc)}, documented {sorted(DP_COMPRESS_FIELDS)}")
        if not op.dp and w.doc.get("n") != n:
            failures.append(f"compress reports n = {w.doc.get('n')}, input has {n}")
        if r.doc.get("n") != n or r.doc.get("payload_bits") != w.doc.get("payload_bits"):
            failures.append(f"{read_argv[0]} reports {r.doc}, write reported {w.doc}")
    try:
        restored = back.read_bytes()
    except FileNotFoundError:
        restored = None
    if restored != op.data:
        failures.append(f"op {op.index}: restored bytes differ from the input")
    result.failures = failures
    if not failures:
        result.payload_bits = w.doc["payload_bits"]
        if op.dp:
            result.dp_bytes = packed.stat().st_size
    return result


@dataclass(frozen=True)
class LabOp:
    index: int
    w: bytes
    w_prime: bytes
    excerpt: bytes
    global_query: tuple[int, int, int | None, bool]
    m: int


def lab_op(seed: int, stream: str, index: int, schedule: list,
           pair_bytes: int = PAIR_BYTES, excerpt_bytes: int = EXCERPT_BYTES) -> LabOp:
    """Round ``index``: fresh pair and excerpt, next grid entries."""
    global_query, m = schedule[index]
    w, w_prime = gen.neighbor_pair(seed, f"{stream}/pair", index, pair_bytes)
    return LabOp(
        index=index,
        w=w,
        w_prime=w_prime,
        excerpt=gen.excerpt(seed, f"{stream}/excerpt", index, excerpt_bytes),
        global_query=global_query,
        m=m,
    )


def _check_sensitivity(name: str, doc: dict, n: int, k: int, window: int | None, self_ref: bool) -> list[str]:
    w_eff = n if window is None else min(window, n)
    variant = _variant(self_ref)
    got = (doc.get("n"), doc.get("k"), doc.get("W"), doc.get("variant"))
    if got != (n, k, w_eff, variant.value):
        return [f"{name}: reports (n, k, W, variant) = {got}, asked {(n, k, w_eff, variant.value)}"]
    bound = gs_upper_bound(n, w_eff, k, variant)
    if not isinstance(doc.get("bits"), int) or not 0 <= doc["bits"] <= bound:
        return [f"{name}: sensitivity {doc.get('bits')} exceeds gs_upper_bound {bound}"]
    return []


def run_lab_op(op: LabOp, workdir: Path, roots: dict) -> OpResult:
    main = roots["query"]
    w_path, wp_path, ex_path = workdir / "w.bin", workdir / "w_prime.bin", workdir / "excerpt.bin"
    w_path.write_bytes(op.w)
    wp_path.write_bytes(op.w_prime)
    ex_path.write_bytes(op.excerpt)
    # analyze and local sensitivity use the global query's variant
    n, k, window, self_ref = op.global_query
    variant_flag = ["--self-ref"] if self_ref else []
    window_flag = [] if window is None else ["--window", str(window)]

    analyze = call(main, ["analyze", str(w_path), str(wp_path), *variant_flag])
    local = call(main, ["sensitivity", "--mode", "local", "--input", str(ex_path), *variant_flag])
    glob = call(main, ["sensitivity", "--mode", "global", "--n", str(n), "--k", str(k),
                       *window_flag, *variant_flag])
    verify = call(main, ["quinstr", "--m", str(op.m), "--verify"])

    failures = (
        check_call("analyze", analyze)
        + check_call("sensitivity local", local)
        + check_call("sensitivity global", glob)
        + check_call("quinstr", verify)
    )
    if not failures:
        if analyze.doc.get("n") != len(op.w) or analyze.doc.get("variant") != _variant(self_ref).value:
            failures.append(f"analyze reports n = {analyze.doc.get('n')}, {analyze.doc.get('variant')}")
        failures += _check_sensitivity("sensitivity local", local.doc, len(op.excerpt),
                                       BYTE_ALPHABET, None, self_ref)
        failures += _check_sensitivity("sensitivity global", glob.doc, n, k, window, self_ref)
        if verify.doc.get("m") != op.m or verify.doc.get("pass") is not True:
            failures.append(f"quinstr --m {op.m} --verify did not pass")
    seconds = analyze.seconds + local.seconds + glob.seconds + verify.seconds
    return OpResult(seconds={"query": seconds}, failures=failures)
