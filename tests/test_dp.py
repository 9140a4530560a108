"""Padding mechanism: sampler, bounds, pad/strip, padded containers."""

import math
import random

import numpy as np
import pytest

from lzdp import (
    Bits,
    CompressionConfig,
    CorruptPaddingError,
    DomainError,
    DPParams,
    ParseError,
    Text,
    Variant,
    compress,
    deserialize_blocks,
    dp_pad,
    dp_strip,
    gs_upper_bound,
    laplace_sample,
    pack_padded_container,
    pad_length,
    pad_lengths,
    payload_bits,
    read_padded_container,
)
from lzdp.dp import bound_table

from conftest import ABCD, random_byte_text

NO = Variant.NON_OVERLAPPING
SR = Variant.SELF_REFERENCING


class FakeRng:
    """Feeds preset uniform draws into the scalar sampler."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        assert size is None
        return self.values.pop(0)


def u_for_z(z: float, scale: float) -> float:
    """Uniform draw that makes the inverse-CDF sampler return z."""
    mag = (1.0 - math.exp(-abs(z) / scale)) / 2.0
    return 0.5 - mag if z <= 0 else 0.5 + mag  # sample carries the sign of u


class TestLaplaceSampler:
    def test_median_draw_gives_zero(self):
        assert laplace_sample(3.0, FakeRng([0.5])) == 0.0

    def test_inverse_cdf_spot_values(self):
        # z = -scale * ln(1/(2*delta)) has CDF exactly delta
        for scale, z in ((10.0, -23.0259), (2.0, 1.5), (1.0, -0.25)):
            got = laplace_sample(scale, FakeRng([u_for_z(z, scale)]))
            assert got == pytest.approx(z, rel=1e-9)

    def test_moments(self):
        rng = np.random.default_rng(123)
        z = laplace_sample(10.0, rng, size=1_000_000)
        assert abs(z.mean()) < 0.05
        assert 9.9 <= np.abs(z).mean() <= 10.1

    def test_tail_fraction(self):
        rng = np.random.default_rng(123)
        z = laplace_sample(10.0, rng, size=1_000_000)
        threshold = -10.0 * math.log(1.0 / (2 * 0.05))
        assert (z <= threshold).mean() == pytest.approx(0.05, abs=0.002)

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            laplace_sample(0.0, np.random.default_rng(0))


class TestUpperBound:
    def test_unbounded_non_overlapping_value(self):
        # ceil((cbrt(9)/2 * 100 + cbrt(3)/2 * 10 + 1) * 28) = ceil(3142.03...)
        assert gs_upper_bound(1000, 1000, 256, NO) == 3143
        assert gs_upper_bound(1000, None, 256, NO) == 3143

    def test_windowed_non_overlapping_value(self):
        expected = math.ceil(
            (81 ** (1 / 3) / 2 * 16 + 9 ** (1 / 3) / 2 * 4 + 3) * 28
        )
        assert expected == 1170
        assert gs_upper_bound(1000, 64, 256, NO) == expected

    def test_window_monotonicity(self):
        assert gs_upper_bound(1000, 64, 256, NO) < gs_upper_bound(1000, 1000, 256, NO)

    def test_self_referencing_additive_constants(self):
        width = 28
        assert gs_upper_bound(1000, None, 256, SR) - gs_upper_bound(1000, None, 256, NO) == 2 * width
        assert gs_upper_bound(1000, 64, 256, SR) - gs_upper_bound(1000, 64, 256, NO) == 2 * width

    def test_window_larger_than_n_rejected(self):
        with pytest.raises(DomainError):
            gs_upper_bound(100, 101, 2, NO)

    def test_bound_table_rows(self):
        rows = bound_table(1000, 1000, 256)
        assert len(rows) == 4
        selected = {(r["variant"], r["form"]) for r in rows if r["selected"]}
        assert selected == {("non_overlapping", "unbounded"), ("self_referencing", "unbounded")}
        by_key = {(r["variant"], r["form"]): r["bound_bits"] for r in rows}
        assert by_key[("non_overlapping", "unbounded")] == 3143


class TestPadLength:
    def test_k_formula(self):
        params = DPParams(epsilon=1.0, delta=0.05, gs_bits=28)
        assert params.k == pytest.approx(28 * math.log(10.0) + 29, rel=1e-12)

    def test_forced_zero_noise(self):
        params = DPParams(epsilon=1.0, delta=0.05, gs_bits=28)
        assert pad_length(params, FakeRng([0.5])) == 94

    def test_clamp_branch(self):
        params = DPParams(epsilon=1.0, delta=0.05, gs_bits=28)
        # u just above -1/2 drives z far below -k
        assert pad_length(params, FakeRng([1e-12])) == 1

    def test_always_positive_across_grid(self):
        for eps in (0.1, 1.0, 10.0):
            for delta in (1e-2, 1e-6):
                params = DPParams(epsilon=eps, delta=delta, gs_bits=28)
                draws = pad_lengths(params, np.random.default_rng(4), 1_000_000)
                assert int(draws.min()) >= 1

    def test_vector_matches_scalar_formula(self):
        params = DPParams(epsilon=0.7, delta=0.003, gs_bits=17)
        us = [0.5, 0.1, 0.93, 0.4999, 0.500001]
        scalars = [pad_length(params, FakeRng([u])) for u in us]
        z = -params.scale * np.sign(np.array(us) - 0.5) * np.log1p(-2 * np.abs(np.array(us) - 0.5))
        vector = np.maximum(1, np.ceil(z + params.k)).astype(int)
        assert scalars == vector.tolist()

    def test_tail_probability_identity(self):
        # Pr[Z <= -(gs/eps) ln(1/(2 delta))] = delta, estimated over 1e5 draws
        params = DPParams(epsilon=1.0, delta=0.01, gs_bits=28)
        rng = np.random.default_rng(9)
        z = laplace_sample(params.scale, rng, size=100_000)
        threshold = -params.scale * math.log(1.0 / (2 * params.delta))
        frac = (z <= threshold).mean()
        se = math.sqrt(params.delta * (1 - params.delta) / 100_000)
        assert abs(frac - params.delta) <= 3 * se

    def test_distribution_matches_shifted_clamped_laplace(self):
        params = DPParams(epsilon=1.0, delta=0.01, gs_bits=28)
        draws = pad_lengths(params, np.random.default_rng(21), 100_000)
        values, counts = np.unique(draws, return_counts=True)
        ecdf = np.cumsum(counts) / draws.size

        def model_cdf(v):
            x = v - params.k
            if x < 0:
                return 0.5 * math.exp(x / params.scale)
            return 1 - 0.5 * math.exp(-x / params.scale)

        ks = max(
            abs(e - model_cdf(v)) for v, e in zip(values.tolist(), ecdf.tolist())
        )
        assert ks < 0.01

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            DPParams(epsilon=0.0, delta=0.1, gs_bits=1)
        with pytest.raises(DomainError):
            DPParams(epsilon=1.0, delta=1.5, gs_bits=1)
        with pytest.raises(DomainError):
            DPParams(epsilon=1.0, delta=0.1, gs_bits=0)
        # non-finite epsilon, or a pad offset k that is infinite or >= 2**63 bits
        for epsilon, delta, gs in (
            (math.inf, 0.1, 28),
            (math.nan, 0.1, 28),
            (1.0, 1e-320, 28),
            (1e-300, 0.01, 28),
            (1.0, 0.01, 2**63),
            (1.0, 0.01, 10**400),
        ):
            with pytest.raises(DomainError):
                DPParams(epsilon=epsilon, delta=delta, gs_bits=gs)

    def test_pinned_draws(self):
        # values recorded from earlier releases; a change here changes every seeded pad
        cases = {
            (1.0, 0.01, 28, 0): 148,
            (0.5, 1e-6, 1170, 11): 28700,
            (4.0, 0.2, 3, 2**40): 5,
            (1.0, 1e-3, 64, 123456789): 278,
        }
        for (epsilon, delta, gs, seed), p in cases.items():
            params = DPParams(epsilon=epsilon, delta=delta, gs_bits=gs)
            assert pad_length(params, np.random.default_rng(seed)) == p


class TestPadAndStrip:
    def test_minimal_pad(self):
        padded = dp_pad(Bits.from01("1011"), 1)
        # 4 payload bits + terminator 0 + 3 alignment ones
        assert padded.to01() == "1011" + "0" + "111"

    def test_reference_payload_pad_four(self):
        f = compress(Text.from_string("aababcdbabca", ABCD), CompressionConfig())
        payload = payload_bits(f)
        padded = dp_pad(payload, 4)
        assert payload.nbits == 50
        assert padded.to01() == payload.to01() + "0111" + "11"

    def test_run_of_ones(self):
        padded = dp_pad(Bits.empty(), 21)
        assert padded.to01() == "0" + "1" * 20 + "111"
        assert dp_strip(padded) == Bits.empty()

    def test_strip_rule(self):
        assert dp_strip(Bits.from01("1011" + "0" + "111")).to01() == "1011"

    def test_strip_empty_payload(self):
        assert dp_strip(Bits.from01("0")).to01() == ""

    def test_strip_all_ones_rejected(self):
        with pytest.raises(CorruptPaddingError):
            dp_strip(Bits.from01("1111"))
        with pytest.raises(CorruptPaddingError):
            dp_strip(Bits.from01(""))

    def test_pad_strip_inverse_property(self):
        rng = random.Random(31)
        for _ in range(300):
            payload = Bits.from01(
                "".join(rng.choice("01") for _ in range(rng.randrange(0, 100)))
            )
            p = rng.randrange(1, 50)
            padded = dp_pad(payload, p)
            assert padded.nbits % 8 == 0
            assert dp_strip(padded) == payload

    def test_padding_shape_invariant(self):
        # ends with exactly p-1+a ones preceded by one zero
        rng = random.Random(32)
        for _ in range(100):
            nbits = rng.randrange(0, 64)
            payload = Bits.from01("".join(rng.choice("01") for _ in range(nbits)))
            p = rng.randrange(1, 2000)
            padded = dp_pad(payload, p)
            a = padded.nbits - payload.nbits - p
            assert 0 <= a < 8
            s = padded.to01()
            run = len(s) - len(s.rstrip("1"))
            assert run == p - 1 + a
            assert s[len(s) - run - 1] == "0"

    def test_dp_compress_strip_roundtrip(self):
        rng = random.Random(33)
        params = DPParams(epsilon=1.0, delta=0.01, gs_bits=64)
        for seed in range(60):
            text = random_byte_text(rng, rng.randrange(0, 200))
            payload = payload_bits(compress(text, CompressionConfig()))
            padded = dp_pad(payload, pad_length(params, np.random.default_rng(seed)))
            assert dp_strip(padded) == payload


class TestPaddedContainer:
    def test_roundtrip(self):
        rng = random.Random(41)
        params = DPParams(epsilon=0.5, delta=0.001, gs_bits=200)
        for _ in range(40):
            text = random_byte_text(rng, rng.randrange(0, 300))
            config = CompressionConfig(window=16)
            f = compress(text, config)
            padded = dp_pad(payload_bits(f), pad_length(params, np.random.default_rng(7)))
            blob = pack_padded_container(f, padded)
            g = read_padded_container(blob)
            assert g == f

    def test_empty_file(self):
        f = compress(Text.from_bytes(b""), CompressionConfig())
        padded = dp_pad(payload_bits(f), 5)
        assert read_padded_container(pack_padded_container(f, padded)) == f

    def test_unpadded_stream_rejected(self):
        from lzdp import serialize_blocks

        f = compress(Text.from_bytes(b"xyzxyz"), CompressionConfig())
        with pytest.raises(ParseError, match="not dp-padded"):
            read_padded_container(serialize_blocks(f))

    def test_plain_reader_rejects_padded(self):
        f = compress(Text.from_bytes(b"xyzxyz"), CompressionConfig())
        blob = pack_padded_container(f, dp_pad(payload_bits(f), 3))
        with pytest.raises(ParseError, match="dp-padded"):
            deserialize_blocks(blob)
