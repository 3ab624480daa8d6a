"""Fidelity cross-check: bit-exact chip vs epoch model agreement.

The two simulation fidelities share parameter tables; this suite verifies
they actually agree where their domains overlap, so lifetime results can
be trusted to reflect the bit-exact physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc.policy import POLICIES, ProtectionLevel
from repro.flash.block import Block
from repro.flash.cell import CellTechnology, native_mode
from repro.flash.error_model import ErrorModel
from repro.flash.geometry import Geometry
from repro.sim.batch import BatchPartition
from repro.sim.lifetime import PartitionSpec

GEOM = Geometry(page_size_bytes=4096, pages_per_block=16, blocks_per_plane=8,
                planes_per_die=1, dies=1)


class TestRberAgreement:
    def test_block_rber_equals_group_rber_at_matched_state(self, make_rng):
        """A bit-exact block and an epoch group at the same (pec, age)
        must predict the same RBER."""
        mode = native_mode(CellTechnology.PLC)
        block = Block(GEOM, mode, make_rng(0))
        block.pec = 300
        block.program(0, b"x")
        block.advance_time(1.2)

        spec = PartitionSpec(
            name="p", mode=mode, protection=POLICIES[ProtectionLevel.NONE],
            capacity_gb=1.0, n_groups=1,
        )
        partition = BatchPartition(spec, 1)
        state = partition.export_state()
        state["pec"][0, 0] = 300
        state["live_gb"][0, 0] = 0.5
        state["write_time"][0, 0] = 0.0
        partition.import_state(state)

        assert block.rber_now(0, now_years=1.2) == pytest.approx(
            partition._rber(now=1.2)[0, 0], rel=1e-9
        )

    def test_injected_error_rate_matches_model(self, make_rng):
        """Monte-Carlo: the block's injected bit-error rate converges to
        the analytic model's prediction."""
        mode = native_mode(CellTechnology.PLC)
        rng = make_rng(5)
        block = Block(GEOM, mode, rng)
        block.pec = 800
        payload = b"\x00" * GEOM.page_size_bytes
        block.program(0, payload)
        block.advance_time(1.0)
        predicted = block.rber_now(0)
        # read repeatedly, counting flipped bits (read disturb shifts the
        # prediction slightly; take prediction fresh each read)
        total_bits = 0
        error_bits = 0
        for _ in range(40):
            data = block.read(0)
            error_bits += sum(b.bit_count() for b in data)
            total_bits += GEOM.page_size_bytes * 8
        observed = error_bits / total_bits
        assert observed == pytest.approx(predicted, rel=0.25)


class TestResidualAgreement:
    def test_page_codec_residual_matches_analytic_model(self, make_rng):
        """Inject errors at a known RBER through the STRONG page codec and
        compare the delivered error rate to residual_ber()."""
        from repro.ecc.page_codec import PageCodec

        policy = POLICIES[ProtectionLevel.STRONG]
        codec = PageCodec(policy, page_size_bytes=512)
        rng = make_rng(9)
        rber = 8e-3  # near the failure knee so both paths see failures
        payload = bytes(rng.integers(0, 256, codec.payload_bytes, dtype=np.uint8))
        delivered_errors = 0
        total_bits = 0
        trials = 30
        for _ in range(trials):
            page = bytearray(codec.encode(payload))
            bits = np.unpackbits(np.frombuffer(bytes(page), dtype=np.uint8))
            flips = rng.random(bits.size) < rber
            bits ^= flips.astype(np.uint8)
            noisy = np.packbits(bits).tobytes()
            result = codec.decode(noisy)
            for a, b in zip(result.payload, payload):
                delivered_errors += (a ^ b).bit_count()
            total_bits += codec.payload_bytes * 8
        observed = delivered_errors / total_bits
        predicted = policy.residual_ber(rber)
        # the analytic model approximates miscorrection weight; allow 2x band
        assert observed == pytest.approx(predicted, rel=1.0)
        assert observed > 0
