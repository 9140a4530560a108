"""Domain types, bit accounting, and the container format."""

import random

import pytest

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
    payload_bits,
    serialize_blocks,
)
from lzdp.core import BitReader, BitWriter

from conftest import ABCD, random_byte_text, standard_configs, synthetic_alphabet

REFERENCE_BLOCKS = ((0, 0, "a"), (1, 1, "b"), (2, 2, "c"), (0, 0, "d"), (3, 4, "a"))


def reference_file() -> CompressedFile:
    """The 12-symbol worked example: five blocks over {a,b,c,d}."""
    blocks = tuple(Block(q, ln, ABCD.index_of(c)) for q, ln, c in REFERENCE_BLOCKS)
    return CompressedFile(n=12, config=CompressionConfig(), alphabet=ABCD, blocks=blocks)


def empty_file(alphabet=ABCD) -> CompressedFile:
    return CompressedFile(n=0, config=CompressionConfig(), alphabet=alphabet, blocks=())


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
        f = CompressedFile(n=4, config=CompressionConfig(), alphabet=ab, blocks=blocks)
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
            CompressedFile(
                n=5, config=CompressionConfig(), alphabet=ABCD, blocks=(Block(0, 0, 0),)
            )

    def test_literal_outside_alphabet_rejected(self):
        with pytest.raises(DomainError):
            CompressedFile(
                n=1, config=CompressionConfig(), alphabet=ABCD, blocks=(Block(0, 0, 9),)
            )


class TestBits:
    def test_from01_roundtrip(self):
        for s in ("", "0", "1", "10110", "1" * 17, "0" * 9 + "1"):
            assert Bits.from01(s).to01() == s

    def test_prefix(self):
        b = Bits.from01("101100111")
        assert b.prefix(4).to01() == "1011"
        assert b.prefix(0).to01() == ""
        assert b.prefix(9).to01() == "101100111"

    def test_writer_reader_fields(self):
        w = BitWriter()
        w.write(5, 4)
        w.write(1, 1)
        w.write(300, 12)
        r = BitReader(w.to_bits())
        assert (r.read(4), r.read(1), r.read(12)) == (5, 1, 300)
        assert r.remaining == 0

    def test_reader_truncation(self):
        r = BitReader(Bits.from01("101"))
        with pytest.raises(ParseError):
            r.read(4)

    def test_run_writer(self):
        w = BitWriter()
        w.write_bit(0)
        w.write_run(1, 20)
        assert w.to_bits().to01() == "0" + "1" * 20


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
