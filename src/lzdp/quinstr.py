"""Adversarial neighbor-pair generator over the quinary alphabet {0,1,2,3,4}.

quinstr(m) builds two equal-length strings differing in a single symbol
('2' vs '3') whose compressions differ by a quadratic-in-m number of blocks,
witnessing how large the compressed-length gap between neighbors can get.

Construction: fixed-width binary encodings E(1)..E(2m), each written twice,
with '2' splitting the head run and '4' terminating it; the tail cycles
through segments S(l,u) = E(m-u+1)^2 ... E(m)^2 '2' E(m+1)^2 ... E(m-u+l)^2,
for l = 2..m and u = l-1..1, each followed by '4'.  Doubling the encodings
and reserving 2/3/4 as markers forces the compressor to cut a block at every
'4' while (almost) every such block splits in two for the perturbed string.

Width modes: PAPER uses ceil(log2 m) bits, which reproduces the construction's
original length arithmetic but is not injective on values above m; INJECTIVE
uses ceil(log2 (2m+1)) bits so that every E(i) with i <= 2m is distinct, which
is what the exact block-count predictions rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import Alphabet, CompressionConfig, DomainError, Text, Variant, block_width
from .lz77 import block_spans
from . import analysis

QUINARY = Alphabet.from_symbols("01234")


class WidthMode(Enum):
    PAPER = "paper"
    INJECTIVE = "injective"


@dataclass(frozen=True)
class QuinStrOutput:
    m: int
    width_mode: WidthMode
    b: int
    w: Text
    w_prime: Text
    predicted_b2: int
    predicted_len: int


def encode_width(m: int, width_mode: WidthMode) -> int:
    if width_mode is WidthMode.PAPER:
        return max(1, math.ceil(math.log2(m)))
    return math.ceil(math.log2(2 * m + 1))


def encode_int(i: int, b: int, width_mode: WidthMode = WidthMode.INJECTIVE) -> str:
    """Fixed-width big-endian binary of i as a '0'/'1' label string.

    INJECTIVE mode requires i < 2**b; PAPER mode keeps only the low b bits,
    reproducing the narrow-width arithmetic even where values collide.
    """
    if b < 1:
        raise DomainError(f"encoding width must be >= 1, got {b}")
    if i < 0:
        raise DomainError(f"encoded values must be >= 0, got {i}")
    if width_mode is WidthMode.INJECTIVE and i >= 1 << b:
        raise DomainError(f"value {i} does not fit injectively in {b} bits")
    return format(i & ((1 << b) - 1), f"0{b}b")


def _segment_labels(l: int, u: int, m: int, b: int, width_mode: WidthMode) -> str:
    parts = []
    for v in range(m - u + 1, m + 1):
        enc = encode_int(v, b, width_mode)
        parts.append(enc + enc)
    parts.append("2")
    for v in range(m + 1, m - u + l + 1):
        enc = encode_int(v, b, width_mode)
        parts.append(enc + enc)
    return "".join(parts)


def build_segment(
    l: int, u: int, m: int, b: int, width_mode: WidthMode = WidthMode.INJECTIVE
) -> Text:
    """The tail segment S(l,u); length is 2*l*b + 1."""
    if not (2 <= l <= m and 1 <= u <= l - 1):
        raise DomainError(f"need 2 <= l <= m and 1 <= u <= l-1, got l={l}, u={u}, m={m}")
    return Text.from_string(_segment_labels(l, u, m, b, width_mode), QUINARY)


def segment_order(m: int) -> list[tuple[int, int]]:
    """Tail segments in construction order: l ascending, u descending."""
    return [(l, u) for l in range(2, m + 1) for u in range(l - 1, 0, -1)]


def f_index(l: int, u: int) -> int:
    """1-based rank of segment (l,u) in construction order."""
    return (l - 2) * (l - 1) // 2 + (l - u)


def check_f_injective(m: int) -> bool:
    """True when f_index is injective on the segment grid with image [1, m(m-1)/2]."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    values = [f_index(l, u) for l, u in segment_order(m)]
    return len(set(values)) == len(values) and sorted(values) == list(
        range(1, m * (m - 1) // 2 + 1)
    )


def predicted_b2(m: int) -> int:
    """Expected number of two-start blocks for the pair: m(m-1)/2 - (floor(m/2) - 1)."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    return m * (m - 1) // 2 - (m // 2 - 1)


def predicted_length(m: int, b: int) -> int:
    """Total string length: 4mb + 2 + (m-1)m + (2/3)(m^3 - m) b."""
    return 4 * m * b + 2 + (m - 1) * m + 2 * (m**3 - m) // 3 * b


def segment_layout(m: int, b: int) -> list[tuple[tuple[int, int], int, int]]:
    """1-based inclusive spans of each tail segment plus its trailing '4'."""
    layout = []
    pos = 4 * m * b + 2 + 1  # first symbol after the head run
    for l, u in segment_order(m):
        seg_len = 2 * l * b + 1 + 1
        layout.append(((l, u), pos, pos + seg_len - 1))
        pos += seg_len
    return layout


def quinstr(m: int, width_mode: WidthMode = WidthMode.INJECTIVE) -> QuinStrOutput:
    """Build the pair (w, w') and check its length against the closed form."""
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    b = encode_width(m, width_mode)

    head = []
    for v in range(1, m + 1):
        enc = encode_int(v, b, width_mode)
        head.append(enc + enc)
    head_w = list(head) + ["2"]
    head_wp = list(head) + ["3"]
    for v in range(m + 1, 2 * m + 1):
        enc = encode_int(v, b, width_mode)
        head_w.append(enc + enc)
        head_wp.append(enc + enc)
    head_w.append("4")
    head_wp.append("4")

    tail = []
    for l, u in segment_order(m):
        tail.append(_segment_labels(l, u, m, b, width_mode))
        tail.append("4")
    tail_str = "".join(tail)

    w = Text.from_string("".join(head_w) + tail_str, QUINARY)
    w_prime = Text.from_string("".join(head_wp) + tail_str, QUINARY)

    expected = predicted_length(m, b)
    if w.n != expected or w_prime.n != expected:
        raise DomainError(f"construction length {w.n} != closed form {expected}")
    diffs = [i for i, (a, c) in enumerate(zip(w.codes, w_prime.codes)) if a != c]
    if diffs != [2 * m * b]:
        raise DomainError("pair must differ exactly at the head marker position")

    return QuinStrOutput(
        m=m,
        width_mode=width_mode,
        b=b,
        w=w,
        w_prime=w_prime,
        predicted_b2=predicted_b2(m),
        predicted_len=expected,
    )


def junction_string(l: int, u: int, m: int, b: int, width_mode: WidthMode) -> str:
    """Label string spanning a tail-segment boundary: the last doubled encoding
    of S(l,u), the '4', and the first doubled encoding of S(l,u-1)."""
    if not (3 <= l <= m and 2 <= u <= l - 1):
        raise DomainError(f"junction needs 3 <= l <= m and 2 <= u <= l-1, got l={l}, u={u}")
    left = encode_int(m - u + l, b, width_mode)
    right = encode_int(m - u + 2, b, width_mode)
    return left + left + "4" + right + right


def repeat_pair(l: int, m: int, b: int, width_mode: WidthMode) -> tuple[str, str]:
    """The one boundary pattern that does recur, for 2 <= l <= floor(m/2) - 1.

    The pattern ending segment S(l,1) and opening S(l+1,l) reappears where
    S(2l,l+1) ends and S(2l,l) begins, because the closing encoding values
    coincide: m-1+l = m-(l+1)+2l.
    """
    if not (2 <= l <= m // 2 - 1):
        raise DomainError(f"repeat pattern needs 2 <= l <= floor(m/2)-1, got l={l}")
    first_enc = encode_int(m - 1 + l, b, width_mode)
    first = first_enc + first_enc + "4" + _segment_labels(l + 1, l, m, b, width_mode)
    second_enc = encode_int(m - (l + 1) + 2 * l, b, width_mode)
    prefix_parts = [second_enc + second_enc, "4"]
    for v in range(m - l + 1, m + 1):
        enc = encode_int(v, b, width_mode)
        prefix_parts.append(enc + enc)
    prefix_parts.append("2")
    enc = encode_int(m + 1, b, width_mode)
    prefix_parts.append(enc + enc)
    second = "".join(prefix_parts)
    return first, second


def _expected_single_start(l: int, u: int) -> bool:
    """Tail segments whose block does NOT split for the perturbed string."""
    return l > 2 and l % 2 == 0 and u == l // 2


def verify_lower_bound(m: int, config: CompressionConfig | None = None) -> dict:
    """Generate the pair, run the block-alignment analyzer, and compare the
    measured counts with the construction's exact predictions.

    Requires m >= 4, an unbounded window, the non-overlapping variant, and
    injective encoding widths; these are the conditions the predictions are
    made for.
    """
    if m < 4:
        raise DomainError(f"verification needs m >= 4, got {m}")
    if config is None:
        config = CompressionConfig(window=None, variant=Variant.NON_OVERLAPPING)
    if config.variant is not Variant.NON_OVERLAPPING or config.window is not None:
        raise DomainError("verification is defined for the unbounded non-overlapping setup")

    out = quinstr(m, WidthMode.INJECTIVE)
    pa = analysis.classify_pair(out.w, out.w_prime, config)
    n = out.w.n

    checks = []

    def add(name: str, passed: bool, detail: str):
        checks.append({"name": name, "pass": bool(passed), "detail": detail})

    add("b0_empty", pa.t0 == 0, f"t0 = {pa.t0}")
    add("b2_count", pa.t2 == out.predicted_b2, f"t2 = {pa.t2}, predicted {out.predicted_b2}")

    segments = m * (m - 1) // 2
    i2 = pa.t - segments
    add("head_block_count", i2 >= 1, f"head occupies {i2} blocks")
    head_ok = i2 >= 1 and all(ty == 1 for ty in pa.types[:i2])
    add("head_blocks_single_start", head_ok, f"first {i2} blocks all have one start inside")

    spans = block_spans(pa.file)
    layout = segment_layout(m, out.b)
    aligned = i2 >= 1 and spans[i2 - 1][1] == 4 * m * out.b + 2
    type_map_ok = True
    mismatches = []
    for (l, u), start, end in layout:
        idx = i2 + f_index(l, u) - 1
        if idx >= pa.t or spans[idx] != (start, end):
            aligned = False
            mismatches.append((l, u, "span"))
            continue
        expected_ty = 1 if _expected_single_start(l, u) else 2
        if pa.types[idx] != expected_ty:
            type_map_ok = False
            mismatches.append((l, u, f"type {pa.types[idx]} != {expected_ty}"))
    add(
        "segment_spans_aligned",
        aligned,
        "every tail block covers exactly one segment" if aligned else f"mismatch {mismatches}",
    )
    add(
        "segment_type_map",
        type_map_ok,
        "split/non-split pattern matches (l even, u = l/2 stays whole)"
        if type_map_ok
        else f"mismatch {mismatches}",
    )

    width = block_width(n, QUINARY.size)
    delta_bits = (pa.t_prime - pa.t) * width
    bound = m * m * math.log2(m)
    add("delta_vs_bound", delta_bits >= bound, f"gap {delta_bits} bits >= {bound:.2f}")

    return {
        "m": m,
        "width_mode": WidthMode.INJECTIVE.value,
        "b": out.b,
        "n": n,
        "predicted_len": out.predicted_len,
        "actual_len": n,
        "predicted_b2": out.predicted_b2,
        "measured": {
            "t0": pa.t0,
            "t1": pa.t1,
            "t2": pa.t2,
            "t3": pa.t3,
            "t": pa.t,
            "t_prime": pa.t_prime,
        },
        "delta_bits": delta_bits,
        "bound_m2logm": bound,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
