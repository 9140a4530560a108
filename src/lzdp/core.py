"""Shared domain types and the bit-exact block container format.

A compressed file is a sequence of blocks ``[q, len, lit]``: copy ``len``
symbols starting at 1-based position ``q`` of the already-reconstructed
prefix, then append the literal symbol ``lit``.  ``q == len == 0`` marks a
pure literal block.  A ``CompressedFile`` holds its blocks as three
``array('Q')`` columns; ``Block`` objects are built only on demand.

Every block is encoded with fixed-width fields, so the payload cost in bits
is ``t * (2*bits_per_int(n) + bits_per_int(K))``.  numpy packs and parses
the columns a chunk of blocks at a time, as bit matrices; every field fits
64 bits, because n is a u64 header field.  Readers also reject a block list
that breaks its header's variant or window.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import ne, not_

import numpy as np

MAGIC = b"LZDP"
VERSION = 1

_FLAG_SELF_REF = 0x01
_FLAG_DP_PADDED = 0x02

#: Sentinel window size meaning "the whole prefix" (W = n).
UNBOUNDED = None


class LzdpError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LzdpError, ValueError):
    """An argument is outside the defined domain of an operation."""


class ParseError(LzdpError):
    """A container byte stream could not be decoded.

    ``offset`` is the byte offset (or bit offset for payload problems,
    flagged in the message) where decoding failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class CorruptFileError(LzdpError):
    """A block references data that has not been reconstructed yet."""


class EncodingOverflowError(LzdpError):
    """A block field does not fit its fixed-width slot (malformed file)."""


class Variant(Enum):
    """Match-source discipline of the compressor."""

    NON_OVERLAPPING = "non_overlapping"
    SELF_REFERENCING = "self_referencing"


@dataclass(frozen=True)
class Alphabet:
    """Ordered table of distinct single-character symbol labels."""

    symbols: tuple[str, ...]
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise DomainError("alphabet must contain at least one symbol")
        for sym in self.symbols:
            if not isinstance(sym, str) or len(sym) != 1:
                raise DomainError(f"symbol labels must be single characters, got {sym!r}")
        lookup = {sym: i for i, sym in enumerate(self.symbols)}
        if len(lookup) != len(self.symbols):
            raise DomainError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "_lookup", lookup)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, label: str) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise DomainError(f"symbol {label!r} is not in the alphabet") from None

    def label(self, index: int) -> str:
        if not 0 <= index < len(self.symbols):
            raise DomainError(f"symbol index {index} out of range [0, {len(self.symbols)})")
        return self.symbols[index]

    @classmethod
    def from_symbols(cls, labels: str) -> "Alphabet":
        return cls(tuple(labels))


BYTES = Alphabet(tuple(chr(i) for i in range(256)))


@dataclass(frozen=True)
class Text:
    """A string of symbol indices over an alphabet.

    The indices are stored compactly as ``codes``, a str whose i-th character
    is ``chr(index_i)``.  For the byte alphabet this makes ``codes`` the
    latin-1 decoding of the raw bytes.
    """

    alphabet: Alphabet
    codes: str

    def __post_init__(self):
        if self.codes and ord(max(self.codes)) >= self.alphabet.size:
            bad = max(self.codes)
            raise DomainError(
                f"symbol index {ord(bad)} out of range for alphabet of size {self.alphabet.size}"
            )

    @property
    def n(self) -> int:
        return len(self.codes)

    def indices(self) -> tuple[int, ...]:
        return tuple(ord(c) for c in self.codes)

    def to_string(self) -> str:
        return "".join(self.alphabet.label(ord(c)) for c in self.codes)

    def to_bytes(self) -> bytes:
        """The symbol labels as latin-1 bytes; inverse of from_bytes."""
        try:
            return self.to_string().encode("latin-1")
        except UnicodeEncodeError:
            raise DomainError("only labels below U+0100 convert to bytes") from None

    @classmethod
    def from_indices(cls, alphabet: Alphabet, indices) -> "Text":
        return cls(alphabet, "".join(chr(i) for i in indices))

    @classmethod
    def from_string(cls, s: str, alphabet: Alphabet) -> "Text":
        return cls(alphabet, "".join(chr(alphabet.index_of(ch)) for ch in s))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        return cls(BYTES, data.decode("latin-1"))


@dataclass(frozen=True, slots=True)
class Block:
    """One emitted unit: ``[q, length, lit]`` with 1-based source start q."""

    q: int
    length: int
    lit: int

    def __post_init__(self):
        if self.q < 0 or self.length < 0 or self.lit < 0:
            raise DomainError(f"block fields must be non-negative: {self}")
        if (self.q == 0) != (self.length == 0):
            raise DomainError(
                f"literal blocks need q == length == 0, match blocks q >= 1 and length >= 1: {self}"
            )

    @property
    def is_literal(self) -> bool:
        return self.q == 0


@dataclass(frozen=True)
class CompressionConfig:
    """Window size and variant. ``window=UNBOUNDED`` means W = n."""

    window: int | None = UNBOUNDED
    variant: Variant = Variant.NON_OVERLAPPING

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise DomainError(f"bounded window must be >= 1, got {self.window}")

    def effective_window(self, n: int) -> int:
        return n if self.window is None else min(self.window, n)


@dataclass(frozen=True)
class CompressedFile:
    """Header data plus the block list of one compressed text.

    Block i is ``[q[i], length[i], lit[i]]``; the columns are ``array('Q')``
    of one length, t.  They are checked once per file, not once per block.
    """

    n: int
    config: CompressionConfig
    alphabet: Alphabet
    q: array
    length: array
    lit: array

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("n must be >= 0")
        columns = (self.q, self.length, self.lit)
        if not all(isinstance(c, array) and c.typecode == "Q" for c in columns):
            raise DomainError("block columns must be array('Q')")
        t = len(self.q)
        if len(self.length) != t or len(self.lit) != t:
            raise DomainError("block columns differ in length")
        total = sum(self.length) + t
        if total != self.n:
            raise DomainError(
                f"blocks cover {total} symbols but the file declares n = {self.n}"
            )
        if not t:
            return
        k = self.alphabet.size
        if max(self.lit) >= k:
            raise DomainError(f"literal index {max(self.lit)} >= alphabet size {k}")
        if max(self.q) > self.n - 1:
            raise DomainError(f"source start {max(self.q)} exceeds n - 1")
        if any(map(ne, map(not_, self.q), map(not_, self.length))):
            raise DomainError(
                "literal blocks need q == length == 0, match blocks q >= 1 and length >= 1"
            )

    @classmethod
    def from_blocks(cls, n: int, config: CompressionConfig, alphabet: Alphabet, blocks):
        """A file from ``Block`` objects, for hand-built block lists."""
        columns = [array("Q", [getattr(b, f) for b in blocks]) for f in ("q", "length", "lit")]
        return cls(n, config, alphabet, *columns)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(map(Block, self.q, self.length, self.lit))

    @property
    def t(self) -> int:
        return len(self.q)


def bits_per_int(x: int) -> int:
    """Width in bits of the fixed field that stores values below ``x``-ish.

    Returns ``max(1, ceil(log2 x))``; the clamp keeps one-symbol inputs and
    one-symbol alphabets encodable.
    """
    if x < 1:
        raise DomainError(f"bits_per_int requires x >= 1, got {x}")
    return max(1, (x - 1).bit_length())


def _field_widths(n: int, k: int) -> tuple[int, int, int]:
    """Widths of the q, length and lit fields of a block; n = 0 sizes as n = 1."""
    wint = bits_per_int(max(n, 1))
    return wint, wint, bits_per_int(k)


def block_width(n: int, k: int) -> int:
    """Encoded width of a single block in bits."""
    return sum(_field_widths(n, k))


def bit_length(file: CompressedFile) -> int:
    """Payload cost in bits: t blocks at block_width(n, K) bits each."""
    return file.t * block_width(file.n, file.alphabet.size)


@dataclass(frozen=True)
class Bits:
    """An immutable bitstring packed MSB-first into bytes."""

    data: bytes
    nbits: int

    def __post_init__(self):
        if self.nbits < 0:
            raise DomainError("nbits must be >= 0")
        if len(self.data) != (self.nbits + 7) // 8:
            raise DomainError("byte buffer does not match declared bit count")
        if self.nbits % 8:
            tail = self.data[-1] & ((1 << (8 - self.nbits % 8)) - 1)
            if tail:
                raise DomainError("fill bits after the final data bit must be zero")

    def prefix(self, nbits: int) -> "Bits":
        if not 0 <= nbits <= self.nbits:
            raise DomainError(f"prefix length {nbits} out of range")
        nbytes = (nbits + 7) // 8
        buf = bytearray(self.data[:nbytes])
        if nbits % 8:
            buf[-1] &= 0xFF << (8 - nbits % 8)
        return Bits(bytes(buf), nbits)

    def to01(self) -> str:
        if not self.nbits:
            return ""
        value = int.from_bytes(self.data, "big") >> (-self.nbits % 8)
        return format(value, f"0{self.nbits}b")

    @classmethod
    def from01(cls, s: str) -> "Bits":
        # int(s, 2) would also take signs, spaces and underscores
        bad = s.strip("01")
        if bad:
            raise DomainError(f"not a bit: {bad[0]!r}")
        if not s:
            return cls.empty()
        nbytes = (len(s) + 7) // 8
        return cls((int(s, 2) << (-len(s) % 8)).to_bytes(nbytes, "big"), len(s))

    @classmethod
    def empty(cls) -> "Bits":
        return cls(b"", 0)


# Blocks per codec chunk.  A multiple of 8, so every chunk but the last ends
# on a byte boundary.  A chunk's bit matrices take about 200 bytes a block,
# so the codec's working set stays near a MiB whatever the file size.
_CODEC_CHUNK = 4096


def _pack_columns(columns, widths) -> Bits:
    """Row i holds column j's i-th value in widths[j] <= 64 bits, MSB first;
    EncodingOverflowError if a value does not fit its field."""
    for col, w in zip(columns, widths):
        if col and max(col) >> w:
            raise EncodingOverflowError(f"value {max(col)} does not fit in {w} bits")
    t = len(columns[0])
    views = [np.frombuffer(col, np.uint64) for col in columns]
    parts = []
    for start in range(0, t, _CODEC_CHUNK):
        fields = []
        for v, w in zip(views, widths):
            octets = v[start : start + _CODEC_CHUNK].astype(">u8").view(np.uint8).reshape(-1, 8)
            fields.append(np.unpackbits(octets, axis=1)[:, 64 - w :])
        parts.append(np.packbits(np.hstack(fields)).tobytes())
    return Bits(b"".join(parts), t * sum(widths))


def _unpack_columns(bits: Bits, widths) -> list[array]:
    """Inverse of _pack_columns; the bit count must be a whole number of rows."""
    width = sum(widths)
    if bits.nbits % width:
        raise ParseError(
            f"payload of {bits.nbits} bits is not a multiple of the {width}-bit block size",
            offset=bits.nbits - bits.nbits % width,
        )
    t = bits.nbits // width
    columns = [array("Q") for _ in widths]
    for start in range(0, t, _CODEC_CHUNK):
        m = min(_CODEC_CHUNK, t - start)
        offset = start * width // 8
        raw = np.frombuffer(bits.data, np.uint8, count=(m * width + 7) // 8, offset=offset)
        matrix = np.unpackbits(raw, count=m * width).reshape(m, width)
        at = 0
        for col, w in zip(columns, widths):
            full = np.zeros((m, 64), np.uint8)
            full[:, 64 - w :] = matrix[:, at : at + w]
            col.frombytes(np.packbits(full, axis=1).view(">u8").astype(np.uint64).tobytes())
            at += w
    return columns


def payload_bits(file: CompressedFile) -> Bits:
    """Fixed-width encoding of the block list; exactly bit_length(file) bits."""
    widths = _field_widths(file.n, file.alphabet.size)
    return _pack_columns((file.q, file.length, file.lit), widths)


def _encode_header(file: CompressedFile, dp_padded: bool) -> bytes:
    alpha = file.alphabet
    if alpha.size > 256:
        raise DomainError("container alphabets are limited to 256 symbols")
    table = bytearray()
    for sym in alpha.symbols:
        code = ord(sym)
        if code > 0xFF:
            raise DomainError(f"alphabet label {sym!r} is not a single byte")
        table.append(code)
    flags = 0
    if file.config.variant is Variant.SELF_REFERENCING:
        flags |= _FLAG_SELF_REF
    if dp_padded:
        flags |= _FLAG_DP_PADDED
    window = 0 if file.config.window is None else file.config.window
    head = struct.pack(">4sBBQQI", MAGIC, VERSION, flags, file.n, window, alpha.size)
    return head + bytes(table)


_HEAD = struct.Struct(">4sBBQQI")


def _decode_header(data: bytes):
    """Returns (n, config, alphabet, dp_padded, offset past the header)."""
    if len(data) < _HEAD.size:
        raise ParseError("stream shorter than the fixed header", offset=len(data))
    magic, version, flags, n, window, k = _HEAD.unpack_from(data)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise ParseError(f"unsupported container version {version}", offset=4)
    if flags & ~(_FLAG_SELF_REF | _FLAG_DP_PADDED):
        raise ParseError(f"unknown flag bits 0x{flags:02x}", offset=5)
    if len(data) < _HEAD.size + k:
        raise ParseError("alphabet table truncated", offset=len(data))
    table = data[_HEAD.size : _HEAD.size + k]
    try:
        alphabet = Alphabet(tuple(chr(code) for code in table))
    except DomainError as exc:
        raise ParseError(f"bad alphabet table: {exc}", offset=_HEAD.size) from exc
    variant = Variant.SELF_REFERENCING if flags & _FLAG_SELF_REF else Variant.NON_OVERLAPPING
    try:
        config = CompressionConfig(window=window or UNBOUNDED, variant=variant)
    except DomainError as exc:
        raise ParseError(str(exc), offset=14) from exc
    return n, config, alphabet, bool(flags & _FLAG_DP_PADDED), _HEAD.size + k


def _file_from_bits(
    bits: Bits, n: int, config: CompressionConfig, alphabet: Alphabet, off: int
) -> CompressedFile:
    """Parses a payload and checks it against its header; a ParseError is at
    the bit offset of a bad block, or at ``off`` for a list not adding to n."""
    widths = _field_widths(n, alphabet.size)
    width = sum(widths)
    q, length, lit = _unpack_columns(bits, widths)
    qv, lv = np.frombuffer(q, np.uint64), np.frombuffer(length, np.uint64)
    bad = (qv == 0) != (lv == 0)
    if bad.any():
        i = int(bad.argmax())
        raise ParseError(f"block {i + 1} invalid: q xor len is 0 (bit offset)", offset=i * width)
    try:
        file = CompressedFile(n, config, alphabet, q, length, lit)
    except DomainError as exc:
        raise ParseError(f"inconsistent block list: {exc}", offset=off) from exc
    # the lengths now add up to n, so nothing below wraps except the masked
    # q0 of literal blocks; ctc is each block's 0-based destination start
    q0, ctc = qv - 1, np.cumsum(lv + 1) - (lv + 1)
    window = config.effective_window(n)
    non_overlapping = config.variant is Variant.NON_OVERLAPPING
    overlap = (qv > 0) & ((q0 >= ctc) | (lv > ctc - q0)) & non_overlapping
    bad = overlap | ((qv > 0) & (ctc > window) & (q0 < ctc - window))
    if bad.any():
        i = int(bad.argmax())
        rule = "copies from the region it produces"
        if not overlap[i]:
            rule = f"copies from before its {window}-symbol window"
        raise ParseError(f"block {i + 1} {rule} (bit offset)", offset=i * width)
    return file


def serialize_blocks(file: CompressedFile) -> bytes:
    """Container bytes for an unpadded file: header, payload bit count, payload."""
    payload = payload_bits(file)
    return _encode_header(file, dp_padded=False) + struct.pack(">Q", payload.nbits) + payload.data


def deserialize_blocks(data: bytes) -> CompressedFile:
    """Exact inverse of serialize_blocks."""
    n, config, alphabet, dp_padded, off = _decode_header(data)
    if dp_padded:
        raise ParseError("container is dp-padded; strip the padding via the dp module", offset=5)
    if len(data) < off + 8:
        raise ParseError("payload bit count field truncated", offset=len(data))
    (nbits,) = struct.unpack_from(">Q", data, off)
    off += 8
    nbytes = (nbits + 7) // 8
    if len(data) < off + nbytes:
        raise ParseError("payload truncated", offset=len(data))
    try:
        bits = Bits(data[off : off + nbytes], nbits)
    except DomainError as exc:
        raise ParseError(f"bad payload fill bits: {exc}", offset=off) from exc
    return _file_from_bits(bits, n, config, alphabet, off)
