"""Neighbor-pair classification and the sensitivity oracles."""

import random

import pytest

from lzdp import (
    BudgetExceededError,
    CompressionConfig,
    DomainError,
    Text,
    Variant,
    bits_per_int,
    check_counting_identities,
    classify_pair,
    gs_upper_bound,
    global_sensitivity_exhaustive,
    local_sensitivity,
    pair_report,
    start_inside,
    t2_bound,
)
from lzdp.analysis import neighbors
from lzdp.quinstr import WidthMode, quinstr

from conftest import AB, all_texts, random_byte_text, synthetic_alphabet

NO = CompressionConfig(variant=Variant.NON_OVERLAPPING)


def flip_binary(text: Text, pos: int) -> Text:
    codes = text.codes
    return Text(text.alphabet, codes[:pos] + chr(1 - ord(codes[pos])) + codes[pos + 1 :])


def binary_pairs(n_max: int):
    for n in range(1, n_max + 1):
        for text in all_texts(n, 2):
            for pos in range(n):
                yield text, flip_binary(text, pos)


def m_sets_oracle(pa):
    """Interval-containment double loop, independent of the analyzer's walk."""
    out = []
    for span in pa.spans:
        out.append(
            tuple(
                k
                for k, span_p in enumerate(pa.spans_prime, start=1)
                if start_inside(span, span_p)
            )
        )
    return tuple(out)


class TestStartInside:
    def test_boundary_start(self):
        assert start_inside((2, 3), (2, 5))

    def test_boundary_end(self):
        assert start_inside((2, 3), (3, 3))

    def test_outside(self):
        assert not start_inside((2, 3), (4, 6))
        assert not start_inside((2, 3), (1, 9))


class TestClassifyPair:
    def test_worked_pair(self):
        pa = classify_pair(
            Text.from_string("abab", AB), Text.from_string("abbb", AB), NO
        )
        assert (pa.t, pa.t_prime) == (3, 3)
        assert pa.m_sets == ((1,), (2,), (3,))
        assert (pa.t0, pa.t1, pa.t2, pa.t3) == (0, 3, 0, 0)

    def test_identical_texts_rejected(self):
        w = Text.from_string("abab", AB)
        with pytest.raises(DomainError):
            classify_pair(w, w, NO)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            classify_pair(Text.from_string("ab", AB), Text.from_string("abb", AB), NO)

    def test_m_sets_match_interval_oracle(self):
        rng = random.Random(100)
        for _ in range(80):
            n = rng.randrange(1, 150)
            w = random_byte_text(rng, n)
            pos = rng.randrange(n)
            repl = chr((ord(w.codes[pos]) + rng.randrange(1, 256)) % 256)
            w_prime = Text(w.alphabet, w.codes[:pos] + repl + w.codes[pos + 1 :])
            for window in (3, None):
                for variant in Variant:
                    pa = classify_pair(
                        w, w_prime, CompressionConfig(window=window, variant=variant)
                    )
                    assert pa.m_sets == m_sets_oracle(pa)
                    assert pa.j == pos + 1

    def test_m_sets_partition_and_consecutive(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randrange(1, 100)
            w = random_byte_text(rng, n)
            w_prime = Text(
                w.alphabet,
                w.codes[: n - 1] + chr((ord(w.codes[n - 1]) + 1) % 256),
            )
            pa = classify_pair(w, w_prime, NO)
            seen = [k for ms in pa.m_sets for k in ms]
            assert seen == list(range(1, pa.t_prime + 1))
            for ms in pa.m_sets:
                assert list(ms) == list(range(ms[0], ms[-1] + 1)) if ms else True


class TestCountingIdentities:
    def test_exhaustive_binary_small(self):
        # every ordered neighbor pair, both variants, bounded and full windows
        for w, w_prime in binary_pairs(7):
            for window in (3, None):
                for variant in Variant:
                    pa = classify_pair(
                        w, w_prime, CompressionConfig(window=window, variant=variant)
                    )
                    for res in check_counting_identities(pa):
                        assert res.passed, (w.codes, w_prime.codes, window, variant, res)

    def test_random_bytes(self):
        rng = random.Random(102)
        for _ in range(120):
            n = rng.randrange(2, 400)
            w = random_byte_text(rng, n)
            pos = rng.randrange(n)
            repl = chr((ord(w.codes[pos]) + rng.randrange(1, 256)) % 256)
            w_prime = Text(w.alphabet, w.codes[:pos] + repl + w.codes[pos + 1 :])
            for window in (3, 16, None):
                for variant in Variant:
                    pa = classify_pair(
                        w, w_prime, CompressionConfig(window=window, variant=variant)
                    )
                    for res in check_counting_identities(pa):
                        assert res.passed, (n, pos, window, variant, res)

    def test_adversarial_pair_counts(self):
        # the generated pair drives the two-start count to its predicted value
        out = quinstr(4, WidthMode.INJECTIVE)
        pa = classify_pair(out.w, out.w_prime, NO)
        assert pa.t_prime - pa.t == pa.t2 - pa.t0 == 5
        for res in check_counting_identities(pa):
            assert res.passed, res

    def test_t2_bound_forms(self):
        assert t2_bound(1000, None) == pytest.approx(
            9 ** (1 / 3) / 2 * 1000 ** (2 / 3) + 3 ** (1 / 3) / 2 * 1000 ** (1 / 3) + 1
        )
        assert t2_bound(1000, 64) == pytest.approx(
            81 ** (1 / 3) / 2 * 64 ** (2 / 3) + 9 ** (1 / 3) / 2 * 64 ** (1 / 3) + 3
        )

    def test_report_schema(self):
        pa = classify_pair(
            Text.from_string("abab", AB), Text.from_string("abbb", AB), NO
        )
        report = pair_report(pa)
        assert set(report) == {
            "n", "W", "variant", "j", "t", "t_prime", "counts", "identities", "per_block",
        }
        assert set(report["counts"]) == {"t0", "t1", "t2", "t3"}
        for row in report["per_block"]:
            assert set(row) == {"i", "s", "f", "q", "len", "type"}
        for ident in report["identities"]:
            assert set(ident) == {"name", "pass", "detail"}
            assert ident["pass"] is True


class TestLocalSensitivity:
    def test_single_symbol_is_flat(self):
        for k in (2, 4):
            alpha = synthetic_alphabet(k)
            assert local_sensitivity(Text.from_indices(alpha, [0]), NO) == 0

    def test_uniform_string_is_flat(self):
        assert local_sensitivity(
            Text.from_string("aaaa", AB), CompressionConfig(window=4)
        ) == 0

    def test_neighbor_count(self):
        text = Text.from_indices(synthetic_alphabet(4), [0, 1, 2, 0])
        assert sum(1 for _ in neighbors(text)) == 4 * 3

    def test_adversarial_pair_lower_bounds_it(self):
        out = quinstr(4, WidthMode.INJECTIVE)
        width = 2 * bits_per_int(out.w.n) + 3
        assert local_sensitivity(out.w, NO) >= 5 * width


class TestGlobalSensitivity:
    def test_two_symbol_strings(self):
        assert global_sensitivity_exhaustive(2, 2, NO) == 0

    def test_regression_values(self):
        # exact maxima recorded from the exhaustive oracle
        expected = {
            (8, 2, None, Variant.NON_OVERLAPPING): 7,
            (8, 2, None, Variant.SELF_REFERENCING): 14,
            (8, 2, 3, Variant.NON_OVERLAPPING): 14,
            (6, 3, None, Variant.NON_OVERLAPPING): 16,
        }
        for (n, k, window, variant), want in expected.items():
            got = global_sensitivity_exhaustive(
                n, k, CompressionConfig(window=window, variant=variant)
            )
            assert got == want
            assert got <= gs_upper_bound(n, window, k, variant)

    def test_pruned_equals_unpruned(self):
        # reference: local sensitivity maximized over every string (itertools.product)
        for config in (NO, CompressionConfig(window=3, variant=Variant.SELF_REFERENCING)):
            unpruned = max(local_sensitivity(text, config) for text in all_texts(6, 3))
            assert global_sensitivity_exhaustive(6, 3, config) == unpruned

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as err:
            global_sensitivity_exhaustive(30, 2, NO)
        assert err.value.required_calls == 2**30 * 31
