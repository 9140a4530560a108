"""Domain types, bit accounting, and the container format."""

import random
import struct
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lzdp import (
    Alphabet,
    Bits,
    Block,
    CompressedFile,
    CompressionConfig,
    DomainError,
    ParseError,
    Text,
    Variant,
    bit_length,
    bits_per_int,
    compress,
    deserialize_blocks,
    dp_pad,
    pack_padded_container,
    payload_bits,
    read_padded_container,
    serialize_blocks,
)
from lzdp.core import EncodingOverflowError
from lzdp.core import _field_widths, _pack_columns, _unpack_columns

from conftest import ABCD, random_byte_text, standard_configs, synthetic_alphabet

REFERENCE_BLOCKS = ((0, 0, "a"), (1, 1, "b"), (2, 2, "c"), (0, 0, "d"), (3, 4, "a"))


def reference_file() -> CompressedFile:
    """The 12-symbol worked example: five blocks over {a,b,c,d}."""
    blocks = tuple(Block(q, ln, ABCD.index_of(c)) for q, ln, c in REFERENCE_BLOCKS)
    return CompressedFile.from_blocks(12, CompressionConfig(), ABCD, blocks)


def empty_file(alphabet=ABCD) -> CompressedFile:
    return CompressedFile.from_blocks(0, CompressionConfig(), alphabet, ())


class TestBitsPerInt:
    def test_clamp_at_one(self):
        assert bits_per_int(1) == 1

    def test_twelve(self):
        # ceil(log2 12) = 4
        assert bits_per_int(12) == 4

    def test_exact_power_of_two(self):
        assert bits_per_int(4096) == 12

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            bits_per_int(0)

    def test_monotone(self):
        values = [bits_per_int(x) for x in range(1, 2000)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestBitLength:
    def test_reference_example_costs_50_bits(self):
        assert bit_length(reference_file()) == 5 * (2 * 4 + 2)

    def test_empty_file(self):
        assert bit_length(empty_file()) == 0

    def test_three_blocks_binary(self):
        ab = synthetic_alphabet(2)
        blocks = (Block(0, 0, 0), Block(1, 1, 0), Block(0, 0, 1))
        f = CompressedFile.from_blocks(4, CompressionConfig(), ab, blocks)
        assert bit_length(f) == 3 * (2 * 2 + 1)


class TestAlphabet:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(DomainError):
            Alphabet.from_symbols("abca")

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Alphabet(())

    def test_index_roundtrip(self):
        alpha = Alphabet.from_symbols("xyz01")
        for i in range(alpha.size):
            assert alpha.index_of(alpha.label(i)) == i

    def test_unknown_symbol(self):
        with pytest.raises(DomainError):
            ABCD.index_of("z")


class TestText:
    def test_out_of_range_index_rejected(self):
        with pytest.raises(DomainError):
            Text.from_indices(ABCD, [0, 4])

    def test_bytes_roundtrip(self):
        data = bytes(range(256)) * 3
        assert Text.from_bytes(data).to_bytes() == data

    def test_to_bytes_returns_labels(self):
        # labels, not symbol indices: "b" has index 1 in this alphabet
        assert Text.from_string("ba", Alphabet.from_symbols("ab")).to_bytes() == b"ba"

    def test_to_bytes_rejects_wide_labels(self):
        with pytest.raises(DomainError):
            Text.from_string("\u0394", Alphabet.from_symbols("\u0394")).to_bytes()

    def test_string_roundtrip(self):
        t = Text.from_string("abba", ABCD)
        assert t.indices() == (0, 1, 1, 0)
        assert t.to_string() == "abba"


class TestBlockInvariants:
    def test_literal_with_length_rejected(self):
        with pytest.raises(DomainError):
            Block(0, 3, 0)

    def test_match_without_length_rejected(self):
        with pytest.raises(DomainError):
            Block(2, 0, 0)

    def test_file_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            CompressedFile.from_blocks(5, CompressionConfig(), ABCD, (Block(0, 0, 0),))

    def test_literal_outside_alphabet_rejected(self):
        with pytest.raises(DomainError):
            CompressedFile.from_blocks(1, CompressionConfig(), ABCD, (Block(0, 0, 9),))


class TestBits:
    def test_from01_roundtrip(self):
        for s in ("", "0", "1", "10110", "1" * 17, "0" * 9 + "1"):
            assert Bits.from01(s).to01() == s

    def test_prefix(self):
        b = Bits.from01("101100111")
        assert b.prefix(4).to01() == "1011"
        assert b.prefix(0).to01() == ""
        assert b.prefix(9).to01() == "101100111"

    def test_from01_rejects_non_bits(self):
        for s in ("102", "1_0", " 1", "+1", "-1"):
            with pytest.raises(DomainError):
                Bits.from01(s)


class TestSerialization:
    def test_reference_payload_is_exactly_50_bits(self):
        assert payload_bits(reference_file()).nbits == 50

    def test_reference_roundtrip(self):
        f = reference_file()
        assert deserialize_blocks(serialize_blocks(f)) == f

    def test_empty_file_header_only(self):
        f = empty_file()
        data = serialize_blocks(f)
        assert deserialize_blocks(data) == f
        assert payload_bits(f).nbits == 0

    def test_roundtrip_random_files(self):
        # files produced by the compressor are valid by construction
        rng = random.Random(20240803)
        checked = 0
        for _ in range(250):
            k = rng.choice([1, 2, 4, 27, 256])
            n = rng.randrange(0, 60)
            alpha = synthetic_alphabet(k)
            text = Text.from_indices(alpha, [rng.randrange(k) for _ in range(n)])
            for config in standard_configs(n):
                f = compress(text, config)
                blob = serialize_blocks(f)
                g = deserialize_blocks(blob)
                assert g == f
                assert bit_length(f) == payload_bits(f).nbits
                checked += 1
        assert checked >= 1000

    def test_truncated_stream_rejected(self):
        blob = serialize_blocks(reference_file())
        with pytest.raises(ParseError):
            deserialize_blocks(blob[:-1])
        with pytest.raises(ParseError):
            deserialize_blocks(blob[:10])

    def test_bad_magic_rejected(self):
        blob = serialize_blocks(reference_file())
        with pytest.raises(ParseError, match="magic"):
            deserialize_blocks(b"XXXX" + blob[4:])

    def test_bad_version_rejected(self):
        blob = bytearray(serialize_blocks(reference_file()))
        blob[4] = 99
        with pytest.raises(ParseError, match="version"):
            deserialize_blocks(bytes(blob))

    def test_variant_and_window_survive(self):
        text = random_byte_text(random.Random(5), 40)
        config = CompressionConfig(window=7, variant=Variant.SELF_REFERENCING)
        f = compress(text, config)
        g = deserialize_blocks(serialize_blocks(f))
        assert g.config == config

    def test_determinism(self):
        f = reference_file()
        assert serialize_blocks(f) == serialize_blocks(f)


def reference_payload(f: CompressedFile) -> str:
    """The payload as a 0/1 string, one format() call per field."""
    wint = bits_per_int(f.n)
    wlit = bits_per_int(f.alphabet.size)
    return "".join(
        format(q, f"0{wint}b") + format(ln, f"0{wint}b") + format(c, f"0{wlit}b")
        for q, ln, c in zip(f.q, f.length, f.lit)
    )


def with_payload(f: CompressedFile, blocks) -> bytes:
    """f's container with its payload replaced by the given (q, len, lit) rows."""
    columns = [array("Q", col) for col in zip(*blocks)]
    payload = _pack_columns(columns, _field_widths(f.n, f.alphabet.size))
    head = serialize_blocks(f)[: -len(payload_bits(f).data) - 8]
    return head + struct.pack(">Q", payload.nbits) + payload.data


@st.composite
def column_files(draw):
    """Valid files of up to 80 blocks whose n may reach 2**64 - 1.

    Lengths are drawn up to what the variant, window and u64 n allow, so a
    few blocks can cover a huge n and fill 63- and 64-bit fields.
    """
    k = draw(st.integers(1, 256))
    variant = draw(st.sampled_from(list(Variant)))
    window = draw(st.one_of(st.none(), st.integers(1, 8), st.integers(1, 2**64 - 1)))
    blocks, ctc = [], 0
    for _ in range(draw(st.integers(1, 80))):
        room = 2**64 - 2 - ctc  # n = ctc + length + 1 must stay below 2**64
        lo = 0 if window is None else max(0, ctc - window)
        reach = ctc - lo if variant is Variant.NON_OVERLAPPING else room
        if ctc and min(reach, room) >= 1 and draw(st.booleans()):
            length = draw(st.integers(1, min(reach, room)))
            hi = ctc - length if variant is Variant.NON_OVERLAPPING else ctc - 1
            q = draw(st.integers(lo, hi)) + 1
        elif room >= 0:
            q = length = 0
        else:
            break
        blocks.append(Block(q, length, draw(st.integers(0, k - 1))))
        ctc += length + 1
    config = CompressionConfig(window=window, variant=variant)
    return CompressedFile.from_blocks(ctc, config, synthetic_alphabet(k), blocks)


class TestCodec:
    def test_field_vectors(self):
        columns = [array("Q", [5]), array("Q", [1]), array("Q", [300])]
        bits = _pack_columns(columns, (4, 1, 12))
        assert bits.to01() == "0101" + "1" + "000100101100"
        assert _unpack_columns(bits, (4, 1, 12)) == columns

    def test_parse_truncation(self):
        with pytest.raises(ParseError):
            _unpack_columns(Bits.from01("101"), (4,))
        blob = bytearray(serialize_blocks(reference_file()))
        at = len(blob) - len(payload_bits(reference_file()).data) - 8
        blob[at : at + 8] = struct.pack(">Q", 49)  # 50 payload bits, 10 a block
        with pytest.raises(ParseError) as err:
            deserialize_blocks(bytes(blob))
        assert err.value.offset == 40

    def test_field_overflow(self):
        with pytest.raises(EncodingOverflowError):
            _pack_columns([array("Q", [3, 16])], (4,))
        assert _pack_columns([array("Q", [2**64 - 1])], (64,)).to01() == "1" * 64

    def test_chunk_edges(self):
        # more blocks than one codec chunk, at a width that is not a multiple of 8
        text = random_byte_text(random.Random(9), 30000)
        f = compress(text, CompressionConfig(window=64))
        assert f.t > 4096
        assert payload_bits(f).to01() == reference_payload(f)
        assert deserialize_blocks(serialize_blocks(f)) == f

    def test_bad_block_offset(self):
        f = reference_file()
        rows = [(b.q, b.length, b.lit) for b in f.blocks]
        rows[3] = (1, 0, 3)  # a match block of length 0
        with pytest.raises(ParseError, match="block 4") as err:
            deserialize_blocks(with_payload(f, rows))
        assert err.value.offset == 3 * 10

    @given(column_files(), st.integers(1, 40))
    def test_property(self, f, p):
        payload = payload_bits(f)
        assert payload.to01() == reference_payload(f)
        assert deserialize_blocks(serialize_blocks(f)) == f
        assert read_padded_container(pack_padded_container(f, dp_pad(payload, p))) == f


READERS = (
    lambda f: deserialize_blocks(serialize_blocks(f)),
    lambda f: read_padded_container(pack_padded_container(f, dp_pad(payload_bits(f), 3))),
)


class TestHeaderRules:
    """Readers reject block lists that break the header's variant or window."""

    def file(self, config, rows, n):
        blocks = [Block(q, ln, ABCD.index_of(c)) for q, ln, c in rows]
        return CompressedFile.from_blocks(n, config, ABCD, blocks)

    def rejected(self, f, match, offset):
        for read in READERS:
            with pytest.raises(ParseError, match=match) as err:
                read(f)
            assert err.value.offset == offset

    def test_overlapped_copy_in_non_overlapping_file(self):
        # "aaaa" as the self-referencing parse, flagged non-overlapping
        f = self.file(CompressionConfig(), [(0, 0, "a"), (1, 2, "a")], 4)
        self.rejected(f, "block 2 copies from the region it produces", 1 * (2 * 2 + 2))

    def test_copy_from_before_the_window(self):
        # "abcab" with W = 2: block 4 copies "a" from 3 symbols back
        rows = [(0, 0, "a"), (0, 0, "b"), (0, 0, "c"), (1, 1, "b")]
        f = self.file(CompressionConfig(window=2), rows, 5)
        self.rejected(f, "block 4 copies from before its 2-symbol window", 3 * (2 * 3 + 2))

    def test_overlapped_copy_in_self_referencing_file(self):
        for window in (None, 1):
            config = CompressionConfig(window=window, variant=Variant.SELF_REFERENCING)
            f = self.file(config, [(0, 0, "a"), (1, 2, "a")], 4)
            assert [read(f) for read in READERS] == [f, f]
