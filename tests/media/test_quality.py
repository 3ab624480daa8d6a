"""Quality metric: sensitivity ordering, propagation, measurement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.codec import FrameType, make_media_object
from repro.media.quality import (
    _bit_errors,
    frame_quality,
    gop_quality,
    measure_quality,
    quality_to_psnr_db,
)


def bit_errors_oracle(a: bytes, b: bytes) -> int:
    """Per-byte XOR popcount: the reference ``_bit_errors`` is pinned to."""
    return sum((x ^ y).bit_count() for x, y in zip(a, b))


class TestFrameQuality:
    def test_zero_ber_is_perfect(self):
        for ftype in FrameType:
            assert frame_quality(0.0, ftype) == 1.0

    def test_sensitivity_ordering_i_worse_than_p_worse_than_b(self):
        ber = 1e-4
        q_i = frame_quality(ber, FrameType.I)
        q_p = frame_quality(ber, FrameType.P)
        q_b = frame_quality(ber, FrameType.B)
        assert q_i < q_p < q_b

    def test_monotone_in_ber(self):
        qs = [frame_quality(b, FrameType.P) for b in (0, 1e-5, 1e-4, 1e-3)]
        assert qs == sorted(qs, reverse=True)

    def test_negative_ber_rejected(self):
        with pytest.raises(ValueError):
            frame_quality(-1e-5, FrameType.I)

    @given(ber=st.floats(min_value=0, max_value=1))
    @settings(max_examples=50, deadline=None)
    def test_quality_in_unit_interval(self, ber):
        for ftype in FrameType:
            assert 0.0 <= frame_quality(ber, ftype) <= 1.0


class TestGopPropagation:
    def test_i_frame_errors_poison_whole_gop(self):
        media = make_media_object(50_000, seed=1)
        gop = media.gops[0]
        n = len(gop.frames)
        # same BER placed on the I frame vs on one B frame
        i_hit = gop_quality([5e-4] + [0.0] * (n - 1), gop)
        b_index = next(
            i for i, f in enumerate(gop.frames) if f.frame_type is FrameType.B
        )
        bers = [0.0] * n
        bers[b_index] = 5e-4
        b_hit = gop_quality(bers, gop)
        assert i_hit < b_hit

    def test_mismatched_ber_count_rejected(self):
        media = make_media_object(50_000, seed=1)
        with pytest.raises(ValueError):
            gop_quality([0.0], media.gops[0])


class TestMeasurement:
    def test_perfect_readback_scores_one(self):
        media = make_media_object(30_000, seed=2)
        report = measure_quality(media, media.data)
        assert report.quality == pytest.approx(1.0)
        assert report.mean_ber == 0.0
        assert report.acceptable

    def test_corruption_lowers_quality(self, rng):
        media = make_media_object(30_000, seed=2)
        noisy = bytearray(media.data)
        for pos in rng.choice(len(noisy), size=200, replace=False):
            noisy[pos] ^= 0xFF
        report = measure_quality(media, bytes(noisy))
        assert report.quality < 1.0
        assert report.mean_ber > 0
        assert report.worst_gop_quality <= report.quality + 1e-9

    def test_short_readback_rejected(self):
        media = make_media_object(30_000, seed=2)
        with pytest.raises(ValueError):
            measure_quality(media, media.data[:-1])

    def test_i_frame_corruption_hurts_more_than_b(self, rng):
        media = make_media_object(60_000, seed=4)
        i_start, i_end = media.critical_ranges()[0]
        # corrupt the same number of bytes in an I frame vs a B frame
        nbytes = min(40, i_end - i_start)
        noisy_i = bytearray(media.data)
        for pos in range(i_start, i_start + nbytes):
            noisy_i[pos] ^= 0xFF
        b_frame = next(
            f for g in media.gops for f in g.frames
            if f.frame_type is FrameType.B and f.size_bytes >= nbytes
        )
        noisy_b = bytearray(media.data)
        for pos in range(b_frame.offset, b_frame.offset + nbytes):
            noisy_b[pos] ^= 0xFF
        q_i = measure_quality(media, bytes(noisy_i)).quality
        q_b = measure_quality(media, bytes(noisy_b)).quality
        assert q_i < q_b


class TestBitErrors:
    @given(
        size=st.sampled_from([0, 1, 2, 3, 4096, 9000]),
        seed=st.integers(0, 2**32 - 1),
        flip_rate=st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_byte_oracle(self, size, seed, flip_rate):
        """Empty, single-byte and multi-KB strings, from no flipped bit
        to every bit flipped, count the same as the per-byte loop."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size, dtype=np.uint8)
        flips = np.packbits(rng.random(size * 8) < flip_rate)
        ref, got = a.tobytes(), (a ^ flips).tobytes()
        expected = bit_errors_oracle(ref, got)
        assert expected == int(np.unpackbits(flips).sum())
        assert _bit_errors(ref, got) == expected


class TestPsnrMapping:
    def test_endpoints(self):
        assert quality_to_psnr_db(1.0) == pytest.approx(40.0)
        assert quality_to_psnr_db(0.0) == pytest.approx(15.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quality_to_psnr_db(1.1)
