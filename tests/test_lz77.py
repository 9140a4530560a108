"""Compressor semantics: known traces, oracle equivalence, roundtrips."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lzdp import (
    Block,
    CompressedFile,
    CompressionConfig,
    CorruptFileError,
    Text,
    Variant,
    bit_length,
    block_spans,
    compress,
    compress_reference,
    decompress,
)
from lzdp import lz77
from lzdp.lz77 import longest_match_reference
from lzdp.quinstr import quinstr

from conftest import AB, ABCD, all_texts, random_byte_text, standard_configs, synthetic_alphabet

NO = CompressionConfig(variant=Variant.NON_OVERLAPPING)
SR = CompressionConfig(variant=Variant.SELF_REFERENCING)


def blocks_of(file):
    return [(b.q, b.length, b.lit) for b in file.blocks]


class TestKnownTraces:
    def test_reference_example(self):
        f = compress(Text.from_string("aababcdbabca", ABCD), NO)
        want = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 3), (3, 4, 0)]
        assert blocks_of(f) == want

    def test_single_symbol_is_literal(self):
        f = compress(Text.from_string("a", ABCD), NO)
        assert blocks_of(f) == [(0, 0, 0)]

    def test_aaaa_non_overlapping(self):
        # hand trace: literal, copy one 'a', forced trailing literal
        f = compress(Text.from_string("aaaa", AB), NO)
        assert blocks_of(f) == [(0, 0, 0), (1, 1, 0), (0, 0, 0)]

    def test_aaaa_self_referencing(self):
        # overlapped copy covers positions 2..3 from source starting at 1
        f = compress(Text.from_string("aaaa", AB), SR)
        assert blocks_of(f) == [(0, 0, 0), (1, 2, 0)]

    def test_empty_text(self):
        f = compress(Text.from_string("", AB), NO)
        assert f.t == 0 and f.n == 0
        assert decompress(f).n == 0


class TestDecompress:
    def test_reference_blocks_decode(self):
        blocks = tuple(
            Block(q, ln, ABCD.index_of(c))
            for q, ln, c in ((0, 0, "a"), (1, 1, "b"), (2, 2, "c"), (0, 0, "d"), (3, 4, "a"))
        )
        f = CompressedFile.from_blocks(12, NO, ABCD, blocks)
        assert decompress(f).to_string() == "aababcdbabca"

    def test_overlapped_copy(self):
        f = CompressedFile.from_blocks(4, SR, AB, (Block(0, 0, 0), Block(1, 2, 0)))
        assert decompress(f).to_string() == "aaaa"

    def test_forward_reference_rejected(self):
        f = CompressedFile.from_blocks(3, SR, AB, (Block(0, 0, 0), Block(2, 1, 1)))
        with pytest.raises(CorruptFileError):
            decompress(f)


class TestBlockSpans:
    def test_reference_spans(self):
        # prefix sums of len_i + 1 over the worked example
        f = compress(Text.from_string("aababcdbabca", ABCD), NO)
        assert block_spans(f) == ((1, 1), (2, 3), (4, 6), (7, 7), (8, 12))

    def test_single_literal(self):
        f = compress(Text.from_string("a", AB), NO)
        assert block_spans(f) == ((1, 1),)

    def test_overlapped(self):
        f = compress(Text.from_string("aaaa", AB), SR)
        assert block_spans(f) == ((1, 1), (2, 4))

    def test_span_arithmetic(self):
        rng = random.Random(3)
        for _ in range(40):
            f = compress(random_byte_text(rng, rng.randrange(0, 200)), NO)
            spans = block_spans(f)
            if not spans:
                continue
            assert spans[0][0] == 1
            assert spans[-1][1] == f.n
            for (s, fi), b in zip(spans, f.blocks):
                assert fi - s == b.length
            for (_, f_prev), (s_next, _) in zip(spans, spans[1:]):
                assert s_next == f_prev + 1


class TestMatcherEquivalence:
    """The accelerated matcher must agree with the brute-force scan exactly."""

    def test_exhaustive_small(self):
        for k in (1, 2, 3):
            for n in range(0, 8):
                for text in all_texts(n, k):
                    for config in standard_configs(n):
                        assert compress(text, config) == compress_reference(text, config)

    def test_random_bytes(self):
        rng = random.Random(77)
        for _ in range(150):
            n = rng.randrange(0, 300)
            text = random_byte_text(rng, n)
            for window in (1, 3, 16, None):
                for variant in Variant:
                    config = CompressionConfig(window=window, variant=variant)
                    assert compress(text, config) == compress_reference(text, config)

    def test_repetitive_inputs(self):
        rng = random.Random(78)
        alpha = synthetic_alphabet(3)
        for _ in range(60):
            n = rng.randrange(1, 120)
            period = rng.randrange(1, 6)
            base = [rng.randrange(3) for _ in range(period)]
            text = Text.from_indices(alpha, (base * (n // period + 1))[:n])
            for config in standard_configs(n):
                assert compress(text, config) == compress_reference(text, config)


class TestCompressorInvariants:
    def test_roundtrip_exhaustive_small(self):
        for k in (1, 2, 3):
            for n in range(0, 7):
                for text in all_texts(n, k):
                    for config in standard_configs(n):
                        assert decompress(compress(text, config)) == text

    def test_roundtrip_random_bytes(self):
        rng = random.Random(11)
        for _ in range(120):
            text = random_byte_text(rng, rng.randrange(0, 600))
            for config in standard_configs(text.n):
                assert decompress(compress(text, config)) == text

    def test_roundtrip_exhaustive_four_symbols(self):
        # exhaustive over K <= 4, n <= 10 via canonical representatives:
        # relabeling symbols commutes with compress and decompress, so the
        # roundtrip holds for a string iff it holds for its canonical form
        from lzdp.analysis import _canonical_codes

        alpha = synthetic_alphabet(4)
        for n in range(0, 11):
            for codes in _canonical_codes(n, 4):
                text = Text(alpha, codes)
                for config in standard_configs(n):
                    assert decompress(compress(text, config)) == text

    def test_window_and_overlap_constraints(self):
        rng = random.Random(12)
        for _ in range(80):
            n = rng.randrange(1, 250)
            text = random_byte_text(rng, n)
            for window in (1, 2, 5, 33, None):
                for variant in Variant:
                    config = CompressionConfig(window=window, variant=variant)
                    f = compress(text, config)
                    w_eff = config.effective_window(n)
                    for (s, _), b in zip(block_spans(f), f.blocks):
                        if b.is_literal:
                            continue
                        assert b.q >= max(1, s - w_eff)
                        assert b.q <= s - 1
                        if variant is Variant.NON_OVERLAPPING:
                            assert b.q + b.length - 1 <= s - 1

    def test_greedy_maximality(self):
        # no admissible match strictly longer than the emitted one
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randrange(1, 60)
            k = rng.choice([2, 3])
            alpha = synthetic_alphabet(k)
            text = Text.from_indices(alpha, [rng.randrange(k) for _ in range(n)])
            for config in standard_configs(n):
                f = compress(text, config)
                self_ref = config.variant is Variant.SELF_REFERENCING
                w_eff = config.effective_window(n)
                ctc = 0
                for b in f.blocks:
                    cap = n - ctc - 1
                    best, best_q0 = longest_match_reference(
                        text.codes, ctc, w_eff, cap, self_ref
                    )
                    assert b.length == best
                    if not b.is_literal:
                        assert b.q - 1 == best_q0  # leftmost tie-break
                    ctc += b.length + 1

    def test_unbounded_window_never_worse(self):
        # on this pinned corpus a full window never produces more blocks
        rng = random.Random(14)
        corpus = [random_byte_text(rng, rng.randrange(1, 400)) for _ in range(60)]
        alpha = synthetic_alphabet(2)
        corpus += [
            Text.from_indices(alpha, [rng.randrange(2) for _ in range(rng.randrange(1, 200))])
            for _ in range(60)
        ]
        for text in corpus:
            for variant in Variant:
                t_full = compress(
                    text, CompressionConfig(window=None, variant=variant)
                ).t
                for window in (1, 2, 7, max(1, text.n // 2)):
                    t_windowed = compress(
                        text, CompressionConfig(window=window, variant=variant)
                    ).t
                    assert t_full <= t_windowed

    def test_bit_length_matches_payload(self):
        rng = random.Random(15)
        for _ in range(30):
            from lzdp import payload_bits

            f = compress(random_byte_text(rng, rng.randrange(0, 128)), NO)
            assert payload_bits(f).nbits == bit_length(f)


def assert_matches_reference(text, windows=(None,)):
    for window in windows:
        for variant in Variant:
            config = CompressionConfig(window=window, variant=variant)
            assert blocks_of(compress(text, config)) == blocks_of(
                compress_reference(text, config)
            ), (window, variant)


def chunk_windows(chunk):
    # windows shorter than, equal to and straddling the chunk edges
    return (1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, None)


@pytest.fixture(params=[7, 37])
def tiny_chunks(request, monkeypatch):
    """Every text takes the table path, in chunks of 7 or 37 positions."""
    monkeypatch.setattr(lz77, "_TABLE_CUTOFF", 0)
    monkeypatch.setattr(lz77, "_CHUNK", request.param)
    return request.param


class TestTableMatcher:
    """The short-match tables must reproduce the brute-force parse exactly."""

    def test_random_bytes(self, tiny_chunks):
        rng = random.Random(91)
        for _ in range(40):
            text = random_byte_text(rng, rng.randrange(0, 300))
            assert_matches_reference(text, chunk_windows(tiny_chunks))

    def test_small_alphabets(self, tiny_chunks):
        rng = random.Random(92)
        for _ in range(60):
            k = rng.randrange(1, 5)
            n = rng.randrange(0, 200)
            text = Text.from_indices(synthetic_alphabet(k), [rng.randrange(k) for _ in range(n)])
            assert_matches_reference(text, chunk_windows(tiny_chunks))

    def test_periodic(self, tiny_chunks):
        rng = random.Random(93)
        for _ in range(40):
            k, period, n = rng.randrange(1, 4), rng.randrange(1, 9), rng.randrange(1, 200)
            base = [rng.randrange(k) for _ in range(period)]
            text = Text.from_indices(synthetic_alphabet(k), (base * n)[:n])
            assert_matches_reference(text, chunk_windows(tiny_chunks))

    def test_random_bytes_above_cutoff(self):
        text = random_byte_text(random.Random(94), 3000)
        assert lz77._uses_tables(text)
        assert_matches_reference(text, (700, None))

    def test_quinstr_above_cutoff(self):
        text = quinstr(8).w
        assert lz77._uses_tables(text)
        assert_matches_reference(text, (100, None))

    def test_wide_alphabet_takes_the_loop(self, monkeypatch):
        # more than 256 symbols: no tables, even above the cutoff
        monkeypatch.setattr(lz77, "_TABLE_CUTOFF", 0)
        monkeypatch.setattr(lz77, "_ShortMatchTables", None)
        rng = random.Random(95)
        alpha = synthetic_alphabet(300)
        text = Text.from_indices(alpha, [rng.randrange(300) for _ in range(150)] * 2)
        assert_matches_reference(text, (1, 40, None))

    def test_small_input_skips_tables(self, monkeypatch):
        monkeypatch.setattr(lz77, "_ShortMatchTables", None)
        text = random_byte_text(random.Random(96), lz77._TABLE_CUTOFF - 1)
        assert_matches_reference(text, (16, None))

    @settings(max_examples=150, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 3), max_size=120),
        chunk=st.sampled_from([7, 37]),
        window=st.one_of(st.none(), st.integers(1, 50)),
        self_ref=st.booleans(),
    )
    def test_property(self, codes, chunk, window, self_ref):
        text = Text.from_indices(synthetic_alphabet(4), codes)
        variant = Variant.SELF_REFERENCING if self_ref else Variant.NON_OVERLAPPING
        config = CompressionConfig(window=window, variant=variant)
        with mock.patch.object(lz77, "_TABLE_CUTOFF", 0), mock.patch.object(lz77, "_CHUNK", chunk):
            fast = compress(text, config)
        assert blocks_of(fast) == blocks_of(compress_reference(text, config))
