"""Reference BCH codec the table-driven production codec is pinned to.

:class:`repro.ecc.bch.BCHCode` encodes, computes syndromes and runs the
Chien search as lookups in tables built once per code.  The scalar
codec it replaced lives here, unchanged, as the semantic reference: it
divides by the generator one bit at a time, evaluates every syndrome as
a sum of ``alpha_pow`` calls, and tests every position of the Chien
search with Horner's rule.  It raises the production
:class:`~repro.ecc.bch.DecodeFailure` and returns the production
:class:`~repro.ecc.bch.DecodeResult`, so outcomes compare directly.

Tests import this module as ``from bch_oracle import BCHCode``.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.bch import DecodeFailure, DecodeResult
from repro.ecc.gf import GF2m

__all__ = ["BCHCode"]


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

    # -- encode ------------------------------------------------------------

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Systematically encode ``k`` data bits into an ``n``-bit codeword.

        Codeword layout: ``[parity (n-k) | data (k)]`` (data bits occupy
        the high-degree coefficients, the usual systematic arrangement).
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        if data_bits.size != self.k:
            raise ValueError(f"expected {self.k} data bits, got {data_bits.size}")
        # message polynomial * x^(n-k), then remainder mod generator
        remainder = np.zeros(self.n_parity, dtype=np.uint8)
        gen = np.array(self.generator, dtype=np.uint8)
        # synthetic division over GF(2), processing data from the highest
        # degree coefficient down
        for bit in data_bits[::-1]:
            feedback = bit ^ remainder[-1]
            remainder[1:] = remainder[:-1]
            remainder[0] = 0
            if feedback:
                remainder ^= gen[:-1] * feedback
        codeword = np.concatenate([remainder, data_bits]).astype(np.uint8)
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
        if all(s == 0 for s in syndromes):
            return DecodeResult(data_bits=received[self.n_parity:].copy(), corrected_errors=0)
        locator = self._berlekamp_massey(syndromes)
        nerrors = len(locator) - 1
        if nerrors > self.t:
            raise DecodeFailure(f"error locator degree {nerrors} exceeds t={self.t}")
        positions = self._chien_search(locator)
        if len(positions) != nerrors:
            raise DecodeFailure("error locator polynomial does not fully factor")
        corrected = received.copy()
        for pos in positions:
            corrected[pos] ^= 1
        # verify: syndromes of the corrected word must vanish
        if any(s != 0 for s in self._syndromes(corrected)):
            raise DecodeFailure("correction failed verification")
        return DecodeResult(data_bits=corrected[self.n_parity:].copy(), corrected_errors=nerrors)

    def _syndromes(self, word: np.ndarray) -> list[int]:
        gf = self.field
        nonzero = np.nonzero(word)[0]
        syndromes = []
        for i in range(1, 2 * self.t + 1):
            s = 0
            for pos in nonzero:
                s ^= gf.alpha_pow(i * int(pos))
            syndromes.append(s)
        return syndromes

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

    def _chien_search(self, locator: list[int]) -> list[int]:
        """Positions of errors: roots alpha^{-i} of the locator."""
        gf = self.field
        positions = []
        for i in range(self.n):
            x = gf.alpha_pow(-i % gf.order)
            if gf.poly_eval(locator, x) == 0:
                positions.append(i)
        return positions
