"""Framed records: damage is *detected*, never mis-loaded.

The property the whole hardened-cache story rests on: for any framed
record, any single-byte corruption or truncation either still yields
the exact original payload (impossible for CRC32C over <2^31 bits to
miss a one-byte change -- but the property allows it) or raises
``RecordError``.  What must never happen is a *different* payload
coming back without an error.

The checksum itself is pinned to the one-byte-at-a-time table loop in
``crc_oracle.py``, bit for bit, at the lengths where the array form
changes shape: shorter than the register, at and around whole chunks,
and across a slab of chunks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from crc_oracle import crc32c as oracle_crc32c
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.record import (
    _CHUNK,
    _SLAB,
    HEADER_SIZE,
    MAGIC,
    RecordError,
    _crc32c_arrays,
    crc32c,
    frame_record,
    unframe_record,
)

#: record lengths: shorter than the 4-byte register; whole chunks, and
#: one byte either side, up to and across the end of the first slab of
#: chunks; several chunks plus a remainder, within and past one slab
_LENGTHS = st.one_of(
    st.integers(0, 3),
    st.builds(
        lambda chunks, delta: chunks * _CHUNK + delta,
        st.sampled_from([1, 2, 3, _SLAB, _SLAB + 1]), st.sampled_from([-1, 0, 1]),
    ),
    st.builds(
        lambda chunks, rest: chunks * _CHUNK + rest,
        st.sampled_from([2, 5, _SLAB + 2]), st.integers(2, _CHUNK - 2),
    ),
)

#: continuation values: the two extremes, and anything
_CONTINUATIONS = st.one_of(st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 2**32 - 1))


class TestCrc32c:
    def test_castagnoli_check_value(self):
        # the canonical CRC-32C check vector (RFC 3720 appendix B.4)
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_incremental_equals_one_shot(self):
        data = bytes(range(256)) * 3
        running = 0
        for i in range(0, len(data), 7):
            running = crc32c(data[i:i + 7], running)
        assert running == crc32c(data)

    @settings(max_examples=150, deadline=None)
    @given(_LENGTHS, st.integers(0, 2**32 - 1), _CONTINUATIONS)
    def test_matches_the_table_loop_oracle(self, length, seed, crc):
        # random bytes from a seed: hypothesis caps the bytes it draws
        data = np.random.default_rng(seed).bytes(length)
        want = oracle_crc32c(data, crc)
        assert crc32c(data, crc) == want
        assert _crc32c_arrays(data, crc) == want  # also where the wheel runs


class TestFraming:
    def test_round_trip(self):
        payload = pickle.dumps({"value": [1, 2.5, "x"], "wall_s": 0.25})
        assert unframe_record(frame_record(payload)) == payload

    def test_header_layout(self):
        framed = frame_record(b"abc")
        assert framed[:4] == MAGIC
        assert len(framed) == HEADER_SIZE + 3

    def test_empty_payload_frames(self):
        assert unframe_record(frame_record(b"")) == b""

    @pytest.mark.parametrize("cut", [0, 1, HEADER_SIZE - 1])
    def test_truncated_header_is_detected(self, cut):
        framed = frame_record(b"payload")
        with pytest.raises(RecordError) as err:
            unframe_record(framed[:cut])
        assert err.value.reason == "truncated-header"

    def test_wrong_magic_is_detected(self):
        framed = bytearray(frame_record(b"payload"))
        framed[0] ^= 0xFF
        with pytest.raises(RecordError) as err:
            unframe_record(bytes(framed))
        assert err.value.reason == "bad-magic"

    def test_truncated_payload_is_detected(self):
        framed = frame_record(b"payload")
        with pytest.raises(RecordError) as err:
            unframe_record(framed[:-1])
        assert err.value.reason == "length-mismatch"

    def test_flipped_payload_byte_is_detected(self):
        framed = bytearray(frame_record(b"payload"))
        framed[HEADER_SIZE] ^= 0x01
        with pytest.raises(RecordError) as err:
            unframe_record(bytes(framed))
        assert err.value.reason == "crc-mismatch"


@st.composite
def _framed_and_damage(draw):
    payload = draw(st.binary(min_size=0, max_size=200))
    framed = frame_record(payload)
    mode = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if mode == "flip":
        index = draw(st.integers(0, len(framed) - 1))
        bit = draw(st.integers(0, 7))
        damaged = bytearray(framed)
        damaged[index] ^= 1 << bit
        damaged = bytes(damaged)
    elif mode == "truncate":
        cut = draw(st.integers(0, len(framed) - 1))
        damaged = framed[:cut]
    else:
        damaged = framed + draw(st.binary(min_size=1, max_size=16))
    return payload, damaged


class TestDamageProperty:
    @settings(max_examples=200, deadline=None)
    @given(_framed_and_damage())
    def test_any_damage_is_detected_or_harmless(self, case):
        """Bit flips, truncation, and trailing garbage never yield a
        *different* payload silently -- wrong answers are worse than
        missing ones."""
        payload, damaged = case
        try:
            recovered = unframe_record(damaged)
        except RecordError:
            return  # detected: the cache treats it as a miss + quarantine
        assert recovered == payload
