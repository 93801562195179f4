"""Watermark keys and embedding: whole-clip single echo and time-spread echo.

A single echo adds a scaled delayed copy of the carrier (x[n] + alpha *
x[n - delta]); a time-spread echo convolves the carrier with a +-alpha
pseudorandom kernel starting at lag delta. Both keep the output the same
length as the input so tagged dataset files keep their durations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio import AudioClip
from .dsp import convolve

# scan range the detector assumes for single echoes
DEFAULT_SINGLE_ECHO_BAND = (25, 125)
# the four whole-dataset tag lags used throughout the evaluation
CANONICAL_DELTAS = (50, 75, 76, 100)

DEFAULT_SINGLE_ALPHA = 0.4
DEFAULT_SPREAD_ALPHA = 0.01
DEFAULT_SPREAD_DELTA = 75


@dataclass(frozen=True)
class EchoKey:
    """Single-echo watermark key: lag in samples and echo amplitude."""

    delta: int
    alpha: float = DEFAULT_SINGLE_ALPHA

    def __post_init__(self):
        if int(self.delta) != self.delta or self.delta < 1:
            raise ValueError(f"delta must be an integer >= 1, got {self.delta}")
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        object.__setattr__(self, "delta", int(self.delta))


@dataclass(frozen=True, eq=False)
class SpreadKey:
    """Time-spread echo key: binary pattern, amplitude, and starting lag."""

    pattern: np.ndarray
    alpha: float = DEFAULT_SPREAD_ALPHA
    delta: int = DEFAULT_SPREAD_DELTA

    def __post_init__(self):
        pattern = np.asarray(self.pattern, dtype=np.uint8)
        if pattern.ndim != 1 or pattern.size < 2:
            raise ValueError("pattern must be a 1-D bit sequence of length >= 2")
        if not np.all((pattern == 0) | (pattern == 1)):
            raise ValueError("pattern bits must be 0 or 1")
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if int(self.delta) != self.delta or self.delta < 1:
            raise ValueError(f"delta must be an integer >= 1, got {self.delta}")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "delta", int(self.delta))

    @property
    def length(self) -> int:
        return int(self.pattern.size)

    @property
    def template(self) -> np.ndarray:
        """The +-1 correlation template 2p - 1."""
        return 2.0 * self.pattern - 1.0


def build_echo_kernel(key) -> np.ndarray:
    """Convolution kernel equivalent of a key.

    EchoKey -> [1, 0 x (delta-1), alpha]; SpreadKey -> length delta+L kernel
    with a unit impulse at 0 and alpha*(2p-1) over [delta, delta+L).
    """
    if isinstance(key, EchoKey):
        kernel = np.zeros(key.delta + 1)
        kernel[0] = 1.0
        kernel[key.delta] = key.alpha
        return kernel
    if isinstance(key, SpreadKey):
        kernel = np.zeros(key.delta + key.length)
        kernel[0] = 1.0
        kernel[key.delta :] += key.alpha * key.template
        return kernel
    raise TypeError(f"expected EchoKey or SpreadKey, got {type(key).__name__}")


def embed_single_echo(clip: AudioClip, key: EchoKey) -> AudioClip:
    """Add a single echo: out[n] = x[n] + alpha * x[n - delta], x[m<0] = 0.

    Output length equals input length (no convolution tail).
    """
    if key.delta >= len(clip):
        raise ValueError(f"echo lag {key.delta} must be smaller than clip length {len(clip)}")
    out = clip.samples.copy()
    out[key.delta :] += key.alpha * clip.samples[: -key.delta]
    return AudioClip(out, clip.sample_rate)


def embed_spread(clip: AudioClip, key: SpreadKey) -> AudioClip:
    """Embed a time-spread echo by convolving with the spread kernel.

    Output is truncated to the input length.
    """
    if key.delta + key.length >= len(clip):
        raise ValueError(
            f"spread kernel (length {key.delta + key.length}) must be shorter "
            f"than the clip (length {len(clip)})"
        )
    kernel = build_echo_kernel(key)
    out = convolve(clip, kernel)
    return AudioClip(out.samples[: len(clip)], clip.sample_rate)


def scaled_key(key, factor: float):
    """Copy of a key with alpha scaled by factor (used by attack channels)."""
    if factor <= 0:
        raise ValueError(f"alpha scale factor must be positive, got {factor}")
    return replace(key, alpha=key.alpha * factor)


def embed(clip: AudioClip, key) -> AudioClip:
    """Embed whichever watermark the key describes."""
    if isinstance(key, EchoKey):
        return embed_single_echo(clip, key)
    if isinstance(key, SpreadKey):
        return embed_spread(clip, key)
    raise TypeError(f"expected EchoKey or SpreadKey, got {type(key).__name__}")
