"""Differentially private padding around the compressor.

The wrapper appends ``0`` followed by ``p - 1`` one-bits to the compressed
payload, where ``p = max(1, ceil(Z + k))``, ``Z`` is Laplace noise with scale
``gs_bits / epsilon`` and ``k = (gs_bits/epsilon) * ln(1/(2*delta)) + gs_bits + 1``.
The observable length of the result is then (epsilon, delta)-differentially
private over single-symbol substitutions, provided ``gs_bits`` upper-bounds
the worst-case payload-length change such a substitution can cause.

``gs_upper_bound`` supplies that worst case in closed form for every variant
and window regime.  Stripping the padding needs no side channel: remove the
maximal trailing run of one-bits, then one zero-bit.

Every draw takes a caller-owned ``np.random.Generator``.  A generator built
from a reused seed draws the same pad for every message, so the padding
then hides nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Bits,
    CompressedFile,
    DomainError,
    LzdpError,
    ParseError,
    Variant,
    _decode_header,
    _encode_header,
    _file_from_bits,
    block_width,
)

_CBRT3 = 3.0 ** (1.0 / 3.0)
_CBRT9 = 9.0 ** (1.0 / 3.0)
_CBRT81 = 81.0 ** (1.0 / 3.0)
# bit lengths share the header's u64 limit on n
_MAX_BITS = 2**63


class CorruptPaddingError(LzdpError):
    """The padded bitstring has no terminating zero-bit."""


@dataclass(frozen=True)
class DPParams:
    """Everything the padding mechanism consumes except the RNG, which the
    caller owns and passes to each draw."""

    epsilon: float
    delta: float
    gs_bits: int

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise DomainError(f"delta must be in (0, 1), got {self.delta}")
        if not 1 <= self.gs_bits < _MAX_BITS:
            raise DomainError(f"gs_bits must be in [1, 2**63), got {self.gs_bits}")
        if not self.k < _MAX_BITS:
            raise DomainError(f"pad offset k = {self.k} bits is not below 2**63")

    @property
    def scale(self) -> float:
        return self.gs_bits / self.epsilon

    @property
    def k(self) -> float:
        return self.scale * math.log(1.0 / (2.0 * self.delta)) + self.gs_bits + 1


def laplace_sample(scale: float, rng: np.random.Generator, size: int | None = None):
    """Zero-mean Laplace noise by inverse CDF: -scale*sign(U)*ln(1-2|U|).

    U is uniform on the open interval (-1/2, 1/2); the measure-zero endpoint
    is redrawn so the log never sees zero.  Mean absolute value equals scale.
    """
    if scale <= 0:
        raise DomainError(f"scale must be > 0, got {scale}")
    if size is None:
        u = rng.random() - 0.5
        while u == -0.5:
            u = rng.random() - 0.5
        return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))
    u = rng.random(size) - 0.5
    while True:
        bad = u == -0.5
        if not bad.any():
            break
        u[bad] = rng.random(int(bad.sum())) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def _bound_expr(x: int, windowed: bool, self_ref: bool) -> float:
    if windowed:
        return _CBRT81 / 2 * x ** (2 / 3) + _CBRT9 / 2 * x ** (1 / 3) + (5 if self_ref else 3)
    return _CBRT9 / 2 * x ** (2 / 3) + _CBRT3 / 2 * x ** (1 / 3) + (3 if self_ref else 1)


def gs_upper_bound(n: int, window: int | None, k: int, variant: Variant) -> int:
    """The ``selected`` bound_table row for ``variant``: the closed-form
    sensitivity bound, in bits, that applies at (n, window, k)."""
    return next(
        row["bound_bits"]
        for row in bound_table(n, window, k)
        if row["selected"] and row["variant"] == variant.value
    )


def bound_table(n: int, window: int | None, k: int) -> list[dict]:
    """Both closed forms for both variants at (n, window), as table rows.

    Each row bounds, in bits, the payload-length change across any pair of
    length-n inputs differing in a single symbol.  The n-form (constant 1
    non-overlapping, 3 self-referencing) holds for every window; the tighter
    W-form (constant 3 or 5) needs a bounded window.  The row that applies,
    the W-form exactly when W < n, is marked ``selected``.
    """
    if n < 1 or k < 1:
        raise DomainError("need n >= 1 and alphabet size >= 1")
    w = n if window is None else window
    if not 1 <= w <= n:
        raise DomainError(f"window must be in [1, n], got {w}")
    width = block_width(n, k)
    rows = []
    for variant in Variant:
        self_ref = variant is Variant.SELF_REFERENCING
        for form, x, windowed in (("unbounded", n, False), ("windowed", w, True)):
            rows.append(
                {
                    "variant": variant.value,
                    "form": form,
                    "bound_bits": math.ceil(_bound_expr(x, windowed, self_ref) * width),
                    "selected": (w == n) == (form == "unbounded"),
                }
            )
    return rows


def pad_length(params: DPParams, rng: np.random.Generator) -> int:
    """One draw of the pad length p = max(1, ceil(Z + k))."""
    z = laplace_sample(params.scale, rng)
    return max(1, math.ceil(z + params.k))


def pad_lengths(params: DPParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized pad_length for Monte Carlo work; same formula per draw."""
    z = laplace_sample(params.scale, rng, size=size)
    return np.maximum(1, np.ceil(z + params.k)).astype(np.int64)


def dp_pad(payload: Bits, p: int) -> Bits:
    """Append 0, then p-1 one-bits, then one-bits up to the byte boundary."""
    if p < 1:
        raise DomainError(f"pad length must be >= 1, got {p}")
    buf = bytearray(payload.data)
    used = payload.nbits % 8
    if used:
        # the zero-bit is the payload's first fill bit; the rest become ones
        buf[-1] |= 0xFF >> (used + 1)
    else:
        buf.append(0x7F)
    buf += b"\xff" * ((payload.nbits + p + 7) // 8 - len(buf))
    return Bits(bytes(buf), 8 * len(buf))


def dp_strip(padded: Bits) -> Bits:
    """Drop the maximal trailing run of one-bits and the zero before it."""
    data = padded.data
    if padded.nbits % 8:
        # turn the zero fill bits into ones, so the run continues through them
        data = data[:-1] + bytes([data[-1] | (0xFF >> padded.nbits % 8)])
    body = data.rstrip(b"\xff")
    if not body:
        raise CorruptPaddingError("no terminating zero-bit found in the padded stream")
    last = body[-1]
    trailing_ones = (last ^ (last + 1)).bit_length() - 1
    return padded.prefix(8 * len(body) - trailing_ones - 1)


def pack_padded_container(file: CompressedFile, padded: Bits) -> bytes:
    """Container bytes for a padded file: header with the dp flag, no payload
    bit count (its presence would leak the unpadded length), padded bits."""
    if padded.nbits % 8:
        raise DomainError("padded bitstrings must be byte-aligned")
    return _encode_header(file, dp_padded=True) + padded.data


def read_padded_container(data: bytes) -> CompressedFile:
    """Parse a padded container back into its block list."""
    n, config, alphabet, dp_padded, off = _decode_header(data)
    if not dp_padded:
        raise ParseError("container is not dp-padded", offset=5)
    body = data[off:]
    try:
        payload = dp_strip(Bits(body, 8 * len(body)))
    except CorruptPaddingError as exc:
        raise ParseError(str(exc), offset=off) from exc
    return _file_from_bits(payload, n, config, alphabet, off)
