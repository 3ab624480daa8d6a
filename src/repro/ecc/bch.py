"""Binary BCH encoder/decoder.

Real, bit-exact BCH(n, k, t) over GF(2^m) with n = 2^m - 1:

* generator polynomial built as the LCM of minimal polynomials of
  alpha, alpha^2, ..., alpha^{2t};
* systematic encoding as a GF(2) product with a parity matrix whose row
  ``j`` is ``x^(n-k+j) mod g(x)``;
* decoding via syndromes (a gather from a ``(2t, n)`` table of
  ``alpha^(i*pos)`` at the word's nonzero positions, XOR-reduced per
  row), Berlekamp-Massey, and a Chien search that evaluates the locator
  at all ``n`` points ``alpha^-i`` in one array expression.

Every table is built once per code in ``__init__``; encode, syndromes and
the Chien search have no Python loop over bits or positions.
Berlekamp-Massey stays scalar: it runs only on words with errors and
works on ``2t`` field elements.  The scalar codec these tables replaced
is the test oracle in ``tests/ecc/bch_oracle.py``; the equivalence suite
pins codewords, corrections and failures to it.

SSD controllers protect each page with BCH (or LDPC) of a strength chosen
to hit a target uncorrectable-bit-error-rate; SOS's "approximate storage"
(§4.2) deliberately weakens or removes this protection on SPARE data.
This module provides the bit-exact codec used by small-scale experiments;
:mod:`repro.ecc.model` provides the closed-form failure probability used
by lifetime sims, and the two are cross-validated in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import GF2m

__all__ = ["BCHCode", "DecodeResult", "DecodeFailure"]


class DecodeFailure(Exception):
    """Raised when the received word has more errors than the code corrects."""


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """Outcome of a successful BCH decode."""

    data_bits: np.ndarray
    corrected_errors: int


class BCHCode:
    """A binary BCH code with codeword length ``2^m - 1`` and strength ``t``.

    Parameters
    ----------
    m:
        Field size; codeword length is ``n = 2^m - 1`` bits.
    t:
        Number of correctable bit errors per codeword.
    """

    def __init__(self, m: int, t: int) -> None:
        if t < 1:
            raise ValueError("t must be >= 1")
        self.field = GF2m(m)
        self.n = self.field.order
        self.t = t
        self.generator = self._build_generator()
        self.n_parity = len(self.generator) - 1
        self.k = self.n - self.n_parity
        if self.k <= 0:
            raise ValueError(f"BCH(m={m}, t={t}) leaves no data bits (k={self.k})")
        n = self.n
        positions = np.arange(n)
        alpha = np.array([self.field.alpha_pow(e) for e in range(n)], dtype=np.int64)
        #: alpha^e for e in [0, 2n): a sum of two logs indexes it unreduced
        self._alpha = np.concatenate([alpha, alpha])
        self._log = np.zeros(n + 1, dtype=np.int64)
        self._log[alpha] = positions
        #: row i-1 holds alpha^(i*pos) for syndrome S_i, i = 1 .. 2t
        self._syndrome_table = alpha[np.arange(1, 2 * t + 1)[:, None] * positions % n]
        #: row j holds the exponent of alpha^(-i*j), i = 0 .. n-1
        self._chien_exponents = -(np.arange(t + 1)[:, None] * positions) % n
        self._parity_matrix = self._build_parity_matrix()

    def _build_generator(self) -> list[int]:
        """LCM of minimal polynomials of alpha^1 .. alpha^{2t}."""
        gf = self.field
        seen_roots: set[int] = set()
        gen = [1]
        for i in range(1, 2 * self.t + 1):
            root = gf.alpha_pow(i)
            if root in seen_roots:
                continue
            # record the whole conjugacy class as covered
            e = root
            while e not in seen_roots:
                seen_roots.add(e)
                e = gf.mul(e, e)
            gen = gf.poly_mul(gen, gf.minimal_polynomial(root))
        return gen

    def _build_parity_matrix(self) -> np.ndarray:
        """``(k, n-k)`` matrix whose row ``j`` is ``x^(n-k+j) mod g(x)``.

        Row 0 is ``g(x)`` without its leading term; each next row is the
        previous one times ``x``, reduced by ``g`` when it overflows.
        Stored as float32 so the encode product runs in BLAS: the sums
        are counts of at most ``k`` ones, exact in float32.
        """
        low = np.array(self.generator[:-1], dtype=np.uint8)
        rows = np.empty((self.k, self.n_parity), dtype=np.uint8)
        row = low.copy()
        for j in range(self.k):
            rows[j] = row
            overflow = row[-1]
            row[1:] = row[:-1].copy()
            row[0] = 0
            if overflow:
                row ^= low
        return rows.astype(np.float32)

    # -- encode ------------------------------------------------------------

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Systematically encode ``k`` data bits into an ``n``-bit codeword.

        Codeword layout: ``[parity (n-k) | data (k)]`` (data bits occupy
        the high-degree coefficients, the usual systematic arrangement).
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        if data_bits.size != self.k:
            raise ValueError(f"expected {self.k} data bits, got {data_bits.size}")
        # parity = data . P over GF(2): integer counts, then their low bit
        counts = data_bits @ self._parity_matrix
        codeword = np.empty(self.n, dtype=np.uint8)
        codeword[: self.n_parity] = counts.astype(np.int64) & 1
        codeword[self.n_parity:] = data_bits
        return codeword

    # -- decode ------------------------------------------------------------

    def decode(self, received: np.ndarray) -> DecodeResult:
        """Decode an ``n``-bit received word, correcting up to ``t`` errors.

        Raises
        ------
        DecodeFailure
            If more than ``t`` errors are present (detected), or the error
            locator does not factor over the field.
        """
        received = np.asarray(received, dtype=np.uint8)
        if received.size != self.n:
            raise ValueError(f"expected {self.n} bits, got {received.size}")
        syndromes = self._syndromes(received)
        if not syndromes.any():
            return DecodeResult(data_bits=received[self.n_parity:].copy(), corrected_errors=0)
        locator = self._berlekamp_massey(syndromes.tolist())
        nerrors = len(locator) - 1
        if nerrors > self.t:
            raise DecodeFailure(f"error locator degree {nerrors} exceeds t={self.t}")
        positions = self._chien_search(locator)
        if positions.size != nerrors:
            raise DecodeFailure("error locator polynomial does not fully factor")
        corrected = received.copy()
        corrected[positions] ^= 1
        # verify: syndromes of the corrected word must vanish
        if self._syndromes(corrected).any():
            raise DecodeFailure("correction failed verification")
        return DecodeResult(data_bits=corrected[self.n_parity:].copy(), corrected_errors=nerrors)

    def _syndromes(self, word: np.ndarray) -> np.ndarray:
        """``S_1 .. S_2t``: XOR of ``alpha^(i*pos)`` over set positions."""
        terms = self._syndrome_table.take(np.flatnonzero(word), axis=1)
        return np.bitwise_xor.reduce(terms, axis=1)

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        """Error-locator polynomial (lowest degree first) via BM."""
        gf = self.field
        c = [1]  # current locator
        b = [1]  # previous locator
        l, m_gap, bb = 0, 1, 1
        for n_idx in range(2 * self.t):
            # discrepancy
            d = syndromes[n_idx]
            for i in range(1, l + 1):
                if i < len(c) and c[i]:
                    d ^= gf.mul(c[i], syndromes[n_idx - i])
            if d == 0:
                m_gap += 1
            elif 2 * l <= n_idx:
                temp = c[:]
                coef = gf.div(d, bb)
                shifted = [0] * m_gap + [gf.mul(coef, x) for x in b]
                c = [
                    (c[i] if i < len(c) else 0) ^ (shifted[i] if i < len(shifted) else 0)
                    for i in range(max(len(c), len(shifted)))
                ]
                l = n_idx + 1 - l
                b = temp
                bb = d
                m_gap = 1
            else:
                coef = gf.div(d, bb)
                shifted = [0] * m_gap + [gf.mul(coef, x) for x in b]
                c = [
                    (c[i] if i < len(c) else 0) ^ (shifted[i] if i < len(shifted) else 0)
                    for i in range(max(len(c), len(shifted)))
                ]
                m_gap += 1
        # trim trailing zeros
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c

    def _chien_search(self, locator: list[int]) -> np.ndarray:
        """Positions of errors: roots alpha^{-i} of the locator (ascending).

        ``locator`` has degree at most ``t``; term ``j`` at point ``i``
        is ``alpha^(log c_j - i*j)``, summed (XOR) over nonzero ``c_j``.
        """
        coeffs = np.asarray(locator)
        degrees = np.flatnonzero(coeffs)
        exponents = self._log[coeffs[degrees]][:, None] + self._chien_exponents[degrees]
        values = np.bitwise_xor.reduce(self._alpha[exponents], axis=0)
        return np.flatnonzero(values == 0)
