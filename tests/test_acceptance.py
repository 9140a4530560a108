"""Acceptance suite: every shipping criterion, one test each, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The randomized criteria pin their seeds, so the suite is
deterministic.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lzdp import (
    CompressionConfig,
    DPParams,
    Text,
    Variant,
    check_counting_identities,
    classify_pair,
    compress,
    decompress,
    dp_pad,
    dp_strip,
    global_sensitivity_exhaustive,
    gs_upper_bound,
    laplace_sample,
    pad_length,
    pad_lengths,
    payload_bits,
    quinstr,
    verify_lower_bound,
    WidthMode,
)

from conftest import ABCD, all_texts, random_byte_text, standard_configs

NO = Variant.NON_OVERLAPPING
SR = Variant.SELF_REFERENCING


@contextmanager
def criterion(num: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {num} ({description}): FAIL "
              f"[{time.perf_counter() - start:.1f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {num} ({description}): PASS [{elapsed:.1f}s]")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def test_criterion_1_reference_blocks():
    with criterion(1, "worked-example block reproduction", 1.0):
        f = compress(Text.from_string("aababcdbabca", ABCD), CompressionConfig())
        got = [(b.q, b.length, ABCD.label(b.lit)) for b in f.blocks]
        assert got == [
            (0, 0, "a"),
            (1, 1, "b"),
            (2, 2, "c"),
            (0, 0, "d"),
            (3, 4, "a"),
        ]


def test_criterion_2_roundtrip():
    with criterion(2, "decompress(compress) identity", 120.0):
        failures = 0
        for k in (1, 2, 3):
            for n in range(0, 11):
                for text in all_texts(n, k):
                    for config in standard_configs(n):
                        if decompress(compress(text, config)) != text:
                            failures += 1
        rng = random.Random(0xACCE55)
        for i in range(10_000):
            n = 4096 if i % 100 == 0 else int(4096 ** rng.random())
            text = random_byte_text(rng, n)
            for config in standard_configs(n):
                if decompress(compress(text, config)) != text:
                    failures += 1
        assert failures == 0


def _assert_all_identities(w, w_prime, config, context):
    pa = classify_pair(w, w_prime, config)
    for res in check_counting_identities(pa):
        assert res.passed, (context, config, res)


def test_criterion_3_counting_identities():
    with criterion(3, "neighbor-pair counting identities", 600.0):
        # exhaustive: every ordered binary neighbor pair up to n = 9
        for n in range(1, 10):
            for text in all_texts(n, 2):
                codes = text.codes
                for pos in range(n):
                    flipped = Text(
                        text.alphabet,
                        codes[:pos] + chr(1 - ord(codes[pos])) + codes[pos + 1 :],
                    )
                    for window in (3, None):
                        for variant in Variant:
                            _assert_all_identities(
                                text,
                                flipped,
                                CompressionConfig(window=window, variant=variant),
                                (codes, pos),
                            )
        # randomized: 10^4 byte pairs at n = 2048, spread over the four setups
        rng = random.Random(0x1DEA)
        setups = [(3, NO), (3, SR), (None, NO), (None, SR)]
        for i in range(10_000):
            w = random_byte_text(rng, 2048)
            pos = rng.randrange(2048)
            repl = chr((ord(w.codes[pos]) + rng.randrange(1, 256)) % 256)
            w_prime = Text(w.alphabet, w.codes[:pos] + repl + w.codes[pos + 1 :])
            window, variant = setups[i % 4]
            _assert_all_identities(
                w, w_prime, CompressionConfig(window=window, variant=variant), ("rand", i)
            )


def test_criterion_4_adversarial_pair_counts():
    with criterion(4, "adversarial pair exact two-start counts", 60.0):
        for m in range(4, 17):
            report = verify_lower_bound(m)
            expected_t2 = m * (m - 1) // 2 - (m // 2 - 1)
            assert report["measured"]["t0"] == 0, report
            assert report["measured"]["t2"] == expected_t2, report
            # proof-chain gap bound holds as well (fallback criterion, not needed)
            assert report["delta_bits"] >= m * m * math.log2(m)
            assert report["pass"] is True, report


def test_criterion_5_length_arithmetic():
    with criterion(5, "narrow-width length arithmetic", 1.0):
        out = quinstr(4, WidthMode.PAPER)
        assert out.w.n == 126 == 378 // 3
        for m in range(4, 17):
            out = quinstr(m, WidthMode.PAPER)
            ceil_log = math.ceil(math.log2(m))
            assert 2 / 3 * m**3 * ceil_log < out.w.n < m**3 * ceil_log


def test_criterion_6_exhaustive_gs_within_bound():
    with criterion(6, "exhaustive global sensitivity within closed form", 600.0):
        cases = [(n, 2) for n in range(1, 9)] + [(n, 3) for n in range(1, 7)]
        for n, k in cases:
            for window in (None, 3):
                for variant in Variant:
                    config = CompressionConfig(window=window, variant=variant)
                    value = global_sensitivity_exhaustive(n, k, config)
                    bound_window = None if window is None or window >= n else window
                    assert value <= gs_upper_bound(n, bound_window, k, variant), (
                        n, k, window, variant, value,
                    )


def test_criterion_7_dp_mechanics():
    with criterion(7, "padding mechanics and noise tail", 120.0):
        draws_per_setup = 100_000
        seed = 20_000
        for epsilon in (0.5, 1.0):
            for delta in (1e-2, 1e-4):
                seed += 1
                params = DPParams(epsilon=epsilon, delta=delta, gs_bits=28)
                p = pad_lengths(params, np.random.default_rng(seed), draws_per_setup)
                assert int(p.min()) >= 1
                z = laplace_sample(params.scale, np.random.default_rng(seed), size=draws_per_setup)
                threshold = -params.scale * math.log(1.0 / (2 * delta))
                frac = float((z <= threshold).mean())
                se = math.sqrt(delta * (1 - delta) / draws_per_setup)
                assert abs(frac - delta) <= 3 * se, (epsilon, delta, frac)
        # stripping recovers the exact unpadded payload
        rng = random.Random(0x5717)
        config = CompressionConfig()
        params = DPParams(epsilon=1.0, delta=1e-2, gs_bits=64)
        for i in range(1_000):
            text = random_byte_text(rng, rng.randrange(0, 256))
            payload = payload_bits(compress(text, config))
            padded = dp_pad(payload, pad_length(params, np.random.default_rng(i)))
            assert dp_strip(padded) == payload


def test_criterion_8_length_histogram_indistinguishability():
    with criterion(8, "pointwise length-histogram privacy check", 300.0):
        epsilon, delta, gs = 1.0, 1e-3, 28
        payload_len = 1000
        n_draws = 1_000_000
        params = DPParams(epsilon=epsilon, delta=delta, gs_bits=gs)

        def total_length_samples(length_bits: int, seed: int) -> np.ndarray:
            p = pad_lengths(params, np.random.default_rng(seed), n_draws)
            raw = length_bits + p
            return 8 * ((raw + 7) // 8)  # byte alignment, post-processing

        totals_a = total_length_samples(payload_len, 881)
        totals_b = total_length_samples(payload_len + gs, 882)
        lo = min(totals_a.min(), totals_b.min())
        hi = max(totals_a.max(), totals_b.max())
        buckets = np.arange(lo, hi + 8, 8)
        pa = np.bincount((totals_a - lo) // 8, minlength=buckets.size) / n_draws
        pb = np.bincount((totals_b - lo) // 8, minlength=buckets.size) / n_draws

        def check_direction(p, q):
            # Pr[len in bucket] <= e^eps Pr[len' in bucket] + delta, 3-sigma slack
            sigma = np.sqrt(
                p * (1 - p) / n_draws + math.e ** (2 * epsilon) * q * (1 - q) / n_draws
            )
            violations = p > math.exp(epsilon) * q + delta + 3 * sigma
            assert not violations.any(), buckets[violations]

        check_direction(pa, pb)
        check_direction(pb, pa)
