"""Windowed echo-hiding payload codec.

The classical per-window scheme: two echo versions of the carrier at lags
delta0/delta1, crossfaded so each window's center carries one payload bit;
at 44.1 kHz with 1024-sample windows that is about 43 bits per second. The
encoder builds both versions and their mix one MIX_BLOCK slice at a time.
Decoding reads each window's cepstrum at the two lags only (real_cepstrum's
`lags`, no inverse FFT), one block of MIX_BLOCK // window windows at a time
(64 at the default window), and compares the two values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioClip
from .dsp import MIX_BLOCK, real_cepstrum
from .embed import EchoKey, add_echo, embed_single_echo

MAX_PAYLOAD_DELTA = 125


@dataclass(frozen=True)
class PayloadConfig:
    """Two echo lags, the echo amplitude, and samples per bit."""

    delta0: int = 50
    delta1: int = 100
    alpha: float = 0.4
    window: int = 1024

    def __post_init__(self):
        if self.delta0 < 1 or self.delta1 < 1:
            raise ValueError("payload lags must be >= 1")
        if self.delta0 == self.delta1:
            raise ValueError("payload lags must differ")
        if max(self.delta0, self.delta1) > MAX_PAYLOAD_DELTA:
            raise ValueError(f"payload lags must be <= {MAX_PAYLOAD_DELTA}")
        if self.window < 4 * max(self.delta0, self.delta1):
            raise ValueError("window must be >= 4x the larger lag")
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")


def capacity_bits(clip_length: int, config: PayloadConfig) -> int:
    """Number of whole windows, hence bits, the clip can carry."""
    return clip_length // config.window


def bits_per_second(sample_rate: int, config: PayloadConfig) -> float:
    return sample_rate / config.window


def encode_payload(clip: AudioClip, bits, config: PayloadConfig = PayloadConfig()) -> AudioClip:
    """Crossfade between the two echoed versions of the clip, one bit per window.

    The mix envelope hits the bit's value exactly at each window center and
    ramps linearly between centers (held flat outside the payload region), so
    a constant payload degenerates to a pure single-echo clip.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.size > capacity_bits(len(clip), config):
        raise ValueError(
            f"payload of {bits.size} bits exceeds capacity "
            f"{capacity_bits(len(clip), config)} for window {config.window}"
        )
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("payload bits must be 0 or 1")
    if config.alpha == 0:
        return clip.copy()
    key0 = EchoKey(config.delta0, config.alpha)
    if bits.size == 0:
        return embed_single_echo(clip, key0)
    key1 = EchoKey(config.delta1, config.alpha)
    x = clip.samples
    centers = (np.arange(bits.size) + 0.5) * config.window
    out = np.empty_like(x)
    for start in range(0, x.size, MIX_BLOCK):
        stop = min(start + MIX_BLOCK, x.size)
        x0 = add_echo(x[start:stop].copy(), x, start, key0)
        x1 = add_echo(x[start:stop].copy(), x, start, key1)
        envelope = np.interp(np.arange(start, stop), centers, bits)
        out[start:stop] = (1.0 - envelope) * x0 + envelope * x1
    return AudioClip(out, clip.sample_rate)


def decode_payload(clip: AudioClip, config: PayloadConfig, n_bits: int) -> np.ndarray:
    """Read n_bits back, one per window: bit = 0 iff c[delta0] > c[delta1].

    Each block of max(1, MIX_BLOCK // window) windows, as rows, takes one 2-D
    cepstrum at the two lags only, so temporaries stay a few MB at any clip
    length. A silent window's cepstrum is exactly 0 at both lags: a tie,
    which reads 1.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    if n_bits * config.window > len(clip):
        raise ValueError(
            f"clip of {len(clip)} samples holds at most "
            f"{capacity_bits(len(clip), config)} bits, asked for {n_bits}"
        )
    windows = clip.samples[: n_bits * config.window].reshape(n_bits, config.window)
    rows = max(1, MIX_BLOCK // config.window)
    bits = np.empty(n_bits, dtype=np.uint8)
    for start in range(0, n_bits, rows):
        c = real_cepstrum(windows[start : start + rows], lags=(config.delta0, config.delta1))
        bits[start : start + rows] = c[:, 0] <= c[:, 1]
    return bits
