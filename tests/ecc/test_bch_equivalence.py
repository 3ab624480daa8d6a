"""The table-driven BCH codec against the scalar oracle it replaced.

:class:`repro.ecc.bch.BCHCode` must be a drop-in for
``bch_oracle.BCHCode``: the same generator and code shape, the same
codeword for every data word, and for every received word the same
:class:`DecodeResult` or a :class:`DecodeFailure` with the same
message.  Received words cover every regime the decoder has: up to
``t`` errors (corrected), ``t+1 .. t+3`` errors (detected or
miscorrected), and uniformly random words.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from bch_oracle import BCHCode as OracleBCHCode
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BCHCode, DecodeFailure

#: (m, t): the STRONG policy's BCH(1023, 943), the unit tests' BCH(255, 191)
#: and BCH(63, 45), BCH(31, 21), and BCH(15, 1) with a single data bit
CODES = [(10, 8), (8, 8), (6, 3), (5, 2), (4, 4)]


@functools.cache
def _pair(m: int, t: int) -> tuple[BCHCode, OracleBCHCode]:
    return BCHCode(m=m, t=t), OracleBCHCode(m=m, t=t)


def _outcome(code, word: np.ndarray) -> tuple:
    try:
        result = code.decode(word)
    except DecodeFailure as failure:
        return ("failure", str(failure))
    bits = result.data_bits
    return ("ok", bits.dtype.str, bits.tobytes(), result.corrected_errors)


def within_t(t: int) -> tuple[int, int]:
    return 0, t


def beyond_t(t: int) -> tuple[int, int]:
    return t + 1, t + 3


@st.composite
def codewords_with_errors(draw, error_range):
    """A code, one of its codewords (drawn data bits), and a drawn number
    of flipped positions in ``error_range(t)``."""
    m, t = draw(st.sampled_from(CODES))
    code, _ = _pair(m, t)
    payload = draw(st.binary(min_size=(code.k + 7) // 8, max_size=(code.k + 7) // 8))
    data = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[: code.k]
    nerrors = draw(st.integers(*error_range(t)))
    positions = draw(st.lists(
        st.integers(0, code.n - 1), min_size=nerrors, max_size=nerrors, unique=True,
    ))
    word = code.encode(data)
    word[positions] ^= 1
    return (m, t), word


@pytest.mark.parametrize("m,t", CODES)
def test_same_code_shape(m, t):
    code, oracle = _pair(m, t)
    assert code.generator == oracle.generator
    assert (code.n, code.k, code.n_parity) == (oracle.n, oracle.k, oracle.n_parity)


@given(mt=st.sampled_from(CODES), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_same_codewords(mt, seed):
    code, oracle = _pair(*mt)
    data = np.random.default_rng(seed).integers(0, 2, size=code.k).astype(np.uint8)
    ours, theirs = code.encode(data), oracle.encode(data)
    assert ours.dtype == theirs.dtype
    assert np.array_equal(ours, theirs)


@given(case=codewords_with_errors(within_t))
@settings(max_examples=100, deadline=None)
def test_same_outcome_with_up_to_t_errors(case):
    mt, word = case
    code, oracle = _pair(*mt)
    assert _outcome(code, word) == _outcome(oracle, word)


@given(case=codewords_with_errors(beyond_t))
@settings(max_examples=100, deadline=None)
def test_same_outcome_beyond_t_errors(case):
    mt, word = case
    code, oracle = _pair(*mt)
    assert _outcome(code, word) == _outcome(oracle, word)


@given(mt=st.sampled_from(CODES), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_same_outcome_for_random_words(mt, seed):
    code, oracle = _pair(*mt)
    word = np.random.default_rng(seed).integers(0, 2, size=code.n).astype(np.uint8)
    assert _outcome(code, word) == _outcome(oracle, word)


def test_same_outcome_for_every_word_of_a_short_code():
    """BCH(15, t=4) is small enough to decode all 2^15 received words on
    both sides: every error weight, every pattern."""
    code, oracle = _pair(4, 4)
    words = (np.arange(2**code.n)[:, None] >> np.arange(code.n)) & 1
    for word in words.astype(np.uint8):
        assert _outcome(code, word) == _outcome(oracle, word)
