"""Shared domain types and the bit-exact block container format.

A compressed file is a sequence of blocks ``[q, len, lit]``: copy ``len``
symbols starting at 1-based position ``q`` of the already-reconstructed
prefix, then append the literal symbol ``lit``.  ``q == len == 0`` marks a
pure literal block.  Every block is encoded with fixed-width fields, so the
payload cost in bits is ``t * (2*bits_per_int(n) + bits_per_int(K))``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

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
    """Header data plus the block list of one compressed text."""

    n: int
    config: CompressionConfig
    alphabet: Alphabet
    blocks: tuple[Block, ...]

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("n must be >= 0")
        total = sum(b.length + 1 for b in self.blocks)
        if total != self.n:
            raise DomainError(
                f"blocks cover {total} symbols but the file declares n = {self.n}"
            )
        k = self.alphabet.size
        for i, b in enumerate(self.blocks):
            if b.lit >= k:
                raise DomainError(f"block {i + 1}: literal index {b.lit} >= alphabet size {k}")
            if b.q > self.n - 1:
                raise DomainError(f"block {i + 1}: source start {b.q} exceeds n - 1")

    @property
    def t(self) -> int:
        return len(self.blocks)


def bits_per_int(x: int) -> int:
    """Width in bits of the fixed field that stores values below ``x``-ish.

    Returns ``max(1, ceil(log2 x))``; the clamp keeps one-symbol inputs and
    one-symbol alphabets encodable.
    """
    if x < 1:
        raise DomainError(f"bits_per_int requires x >= 1, got {x}")
    return max(1, (x - 1).bit_length())


def block_width(n: int, k: int) -> int:
    """Encoded width of a single block in bits."""
    return 2 * bits_per_int(n) + bits_per_int(k)


def bit_length(file: CompressedFile) -> int:
    """Payload cost in bits: t blocks at block_width(n, K) bits each."""
    if file.n == 0:
        return 0
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

    def __len__(self) -> int:
        return self.nbits

    def bit(self, i: int) -> int:
        if not 0 <= i < self.nbits:
            raise IndexError(i)
        return (self.data[i // 8] >> (7 - i % 8)) & 1

    def prefix(self, nbits: int) -> "Bits":
        if not 0 <= nbits <= self.nbits:
            raise DomainError(f"prefix length {nbits} out of range")
        nbytes = (nbits + 7) // 8
        buf = bytearray(self.data[:nbytes])
        if nbits % 8:
            buf[-1] &= 0xFF << (8 - nbits % 8)
        return Bits(bytes(buf), nbits)

    def to01(self) -> str:
        return "".join(str(self.bit(i)) for i in range(self.nbits))

    @classmethod
    def from01(cls, s: str) -> "Bits":
        w = BitWriter()
        for ch in s:
            if ch not in "01":
                raise DomainError(f"not a bit: {ch!r}")
            w.write_bit(ch == "1")
        return w.to_bits()

    @classmethod
    def empty(cls) -> "Bits":
        return cls(b"", 0)


class BitWriter:
    """Accumulates bits MSB-first; zero-fills the final byte on export."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bit_count = 0

    def write_bit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | (1 if bit else 0)
        self._nacc += 1
        self.bit_count += 1
        if self._nacc == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nacc = 0

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >> width:
            raise EncodingOverflowError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_run(self, bit: int, count: int) -> None:
        # byte-aligned fast path keeps long padding runs cheap
        while count > 0 and self._nacc:
            self.write_bit(bit)
            count -= 1
        fill = 0xFF if bit else 0x00
        nbytes, rest = divmod(count, 8)
        if nbytes:
            self._buf.extend(bytes([fill]) * nbytes)
            self.bit_count += 8 * nbytes
        for _ in range(rest):
            self.write_bit(bit)

    def write_bits(self, bits: Bits) -> None:
        if self._nacc == 0:
            full, rest = divmod(bits.nbits, 8)
            self._buf.extend(bits.data[:full])
            self.bit_count += 8 * full
            for i in range(8 * full, bits.nbits):
                self.write_bit(bits.bit(i))
        else:
            for i in range(bits.nbits):
                self.write_bit(bits.bit(i))

    def to_bits(self) -> Bits:
        data = bytes(self._buf)
        if self._nacc:
            data += bytes([self._acc << (8 - self._nacc)])
        return Bits(data, self.bit_count)


class BitReader:
    """Reads fixed-width MSB-first fields out of a Bits value."""

    def __init__(self, bits: Bits):
        self._bits = bits
        self.pos = 0

    @property
    def remaining(self) -> int:
        return self._bits.nbits - self.pos

    def read(self, width: int) -> int:
        if width > self.remaining:
            raise ParseError("bit stream truncated mid-field", offset=self.pos)
        value = 0
        for _ in range(width):
            value = (value << 1) | self._bits.bit(self.pos)
            self.pos += 1
        return value


def payload_bits(file: CompressedFile) -> Bits:
    """Fixed-width encoding of the block list; exactly bit_length(file) bits."""
    if file.n == 0:
        return Bits.empty()
    wint = bits_per_int(file.n)
    wlit = bits_per_int(file.alphabet.size)
    limit = 1 << wint
    w = BitWriter()
    for b in file.blocks:
        if b.q >= limit or b.length >= limit:
            raise EncodingOverflowError(
                f"block {b} exceeds the {wint}-bit field for n = {file.n}"
            )
        w.write(b.q, wint)
        w.write(b.length, wint)
        w.write(b.lit, wlit)
    return w.to_bits()


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


def _blocks_from_bits(bits: Bits, n: int, alphabet: Alphabet) -> tuple[Block, ...]:
    """Parses a payload bitstring; its length must be an exact block multiple."""
    if n == 0:
        if bits.nbits:
            raise ParseError("payload bits present for an empty file", offset=0)
        return ()
    width = block_width(n, alphabet.size)
    if bits.nbits % width:
        raise ParseError(
            f"payload of {bits.nbits} bits is not a multiple of the {width}-bit block size",
            offset=bits.nbits - bits.nbits % width,
        )
    wint = bits_per_int(n)
    wlit = bits_per_int(alphabet.size)
    reader = BitReader(bits)
    blocks = []
    for i in range(bits.nbits // width):
        start = reader.pos
        q = reader.read(wint)
        length = reader.read(wint)
        lit = reader.read(wlit)
        try:
            blocks.append(Block(q, length, lit))
        except DomainError as exc:
            raise ParseError(f"block {i + 1} invalid: {exc} (bit offset)", offset=start) from exc
    return tuple(blocks)


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
    blocks = _blocks_from_bits(bits, n, alphabet)
    try:
        return CompressedFile(n=n, config=config, alphabet=alphabet, blocks=blocks)
    except DomainError as exc:
        raise ParseError(f"inconsistent block list: {exc}", offset=off) from exc
