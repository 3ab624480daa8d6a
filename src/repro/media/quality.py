"""Media quality metric under bit errors.

Maps observed bit error rates per frame to a perceptual quality score,
following the error-propagation structure of GOP-coded video:

* a frame's own quality decays exponentially with its bit error rate,
  with a sensitivity constant per frame type (I >> P > B) -- intra-coded
  frames lose entropy-coded sync on few errors, while B-frame macroblock
  errors stay local;
* I-frame corruption multiplies into every frame of its GOP (reference
  propagation);
* file quality is the byte-weighted mean over GOPs.

A display mapping to a PSNR-like dB figure is provided for familiarity;
experiments threshold on the [0, 1] score.  ``DEFAULT_ACCEPTABLE_QUALITY``
is the "sufficient quality" bar of the paper's abstract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codec import FrameType, Gop, MediaObject

__all__ = [
    "FRAME_SENSITIVITY",
    "DEFAULT_ACCEPTABLE_QUALITY",
    "frame_quality",
    "gop_quality",
    "file_quality",
    "quality_to_psnr_db",
    "QualityReport",
    "measure_quality",
]

#: Exponential BER sensitivity per frame type (errors-per-bit scale).
FRAME_SENSITIVITY: dict[FrameType, float] = {
    FrameType.I: 5000.0,
    FrameType.P: 800.0,
    FrameType.B: 300.0,
}

#: Quality score below which degradation is user-visible enough to act on.
DEFAULT_ACCEPTABLE_QUALITY = 0.80


def frame_quality(ber: float, frame_type: FrameType) -> float:
    """Quality of a single frame read at bit error rate ``ber``."""
    if ber < 0:
        raise ValueError("ber must be non-negative")
    return math.exp(-FRAME_SENSITIVITY[frame_type] * ber)


def gop_quality(frame_bers: list[float], gop: Gop) -> float:
    """Quality of one GOP given each frame's observed BER.

    The I-frame's quality multiplies into all frames (reference
    propagation); remaining frames contribute their byte-weighted mean.
    """
    if len(frame_bers) != len(gop.frames):
        raise ValueError("one BER per frame required")
    q_i = frame_quality(frame_bers[0], FrameType.I)
    dependents = list(zip(frame_bers[1:], gop.frames[1:]))
    if not dependents:
        return q_i
    weighted = sum(
        frame_quality(ber, frame.frame_type) * frame.size_bytes for ber, frame in dependents
    )
    total = sum(frame.size_bytes for _, frame in dependents)
    return q_i * (weighted / total)


def file_quality(gop_qualities: list[float], gops: tuple[Gop, ...]) -> float:
    """Byte-weighted mean quality across GOPs."""
    if len(gop_qualities) != len(gops):
        raise ValueError("one quality per GOP required")
    total = sum(g.size_bytes for g in gops)
    if total == 0:
        return 1.0
    return sum(q * g.size_bytes for q, g in zip(gop_qualities, gops)) / total


def quality_to_psnr_db(quality: float) -> float:
    """Display mapping from [0, 1] quality to a PSNR-like dB figure.

    Anchored at ~40 dB (visually lossless) for quality 1.0 and ~15 dB
    (unwatchable) for quality 0.0; linear in between.  Purely cosmetic.
    """
    if not 0.0 <= quality <= 1.0:
        raise ValueError("quality must be in [0, 1]")
    return 15.0 + 25.0 * quality


@dataclass(frozen=True, slots=True)
class QualityReport:
    """Quality measurement of one media object read-back."""

    quality: float
    psnr_db: float
    worst_gop_quality: float
    mean_ber: float

    @property
    def acceptable(self) -> bool:
        """Whether quality clears :data:`DEFAULT_ACCEPTABLE_QUALITY`."""
        return self.quality >= DEFAULT_ACCEPTABLE_QUALITY


def measure_quality(media: MediaObject, readback: bytes) -> QualityReport:
    """Compare a read-back byte string against the reference media object.

    Counts bit errors per frame (XOR popcount against the reference),
    converts to per-frame BER, and aggregates through the GOP model.
    """
    if len(readback) < media.size_bytes:
        raise ValueError("readback shorter than media object")
    reference = media.data
    gop_qs: list[float] = []
    total_errors = 0
    for gop in media.gops:
        bers: list[float] = []
        for frame in gop.frames:
            ref = reference[frame.offset: frame.end]
            got = readback[frame.offset: frame.end]
            errors = _bit_errors(ref, got)
            total_errors += errors
            bers.append(errors / (frame.size_bytes * 8))
        gop_qs.append(gop_quality(bers, gop))
    quality = file_quality(gop_qs, media.gops)
    return QualityReport(
        quality=quality,
        psnr_db=quality_to_psnr_db(quality),
        worst_gop_quality=min(gop_qs) if gop_qs else 1.0,
        mean_ber=total_errors / (media.size_bytes * 8),
    )


def _bit_errors(a: bytes, b: bytes) -> int:
    """Hamming distance in bits between equal-length byte strings."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).bit_count()
