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
from .dsp import MIX_BLOCK, convolve

DEFAULT_SINGLE_ALPHA = 0.4
DEFAULT_SPREAD_ALPHA = 0.01
DEFAULT_SPREAD_DELTA = 75


def _check_key(delta, alpha, pattern=None) -> None:
    """Raise one ValueError that lists, joined by "; ", every problem of a key's fields."""
    problems = []
    if pattern is not None and (pattern.ndim != 1 or pattern.size < 2):
        problems.append("pattern must be a 1-D bit sequence of length >= 2")
    if pattern is not None and not np.all((pattern == 0) | (pattern == 1)):
        problems.append("pattern bits must be 0 or 1")
    if not (delta >= 1 and delta % 1 == 0):  # false for NaN and infinity too
        problems.append(f"delta must be an integer >= 1, got {delta}")
    if not 0 <= alpha < 1:
        problems.append(f"alpha must be in [0, 1), got {alpha}")
    if problems:
        raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class EchoKey:
    """Single-echo watermark key: lag in samples and echo amplitude."""

    delta: int
    alpha: float = DEFAULT_SINGLE_ALPHA

    def __post_init__(self):
        _check_key(self.delta, self.alpha)
        object.__setattr__(self, "delta", int(self.delta))

    @property
    def label(self) -> str:
        return f"single-d{self.delta}-a{self.alpha:g}"


@dataclass(frozen=True, eq=False)
class SpreadKey:
    """Time-spread echo key: binary pattern, amplitude, and starting lag."""

    pattern: np.ndarray
    alpha: float = DEFAULT_SPREAD_ALPHA
    delta: int = DEFAULT_SPREAD_DELTA

    def __post_init__(self):
        pattern = np.asarray(self.pattern, dtype=np.uint8)
        _check_key(self.delta, self.alpha, pattern)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "delta", int(self.delta))

    @property
    def length(self) -> int:
        return int(self.pattern.size)

    @property
    def template(self) -> np.ndarray:
        """The +-1 correlation template 2p - 1."""
        return 2.0 * self.pattern - 1.0

    @property
    def label(self) -> str:
        return f"spread-d{self.delta}-L{self.length}-a{self.alpha:g}"

    def kernel(self) -> np.ndarray:
        """Convolution kernel: a unit impulse at 0 and alpha*(2p-1) over [delta, delta+L)."""
        kernel = np.zeros(self.delta + self.length)
        kernel[0] = 1.0
        kernel[self.delta :] += self.alpha * self.template
        return kernel


def embed_single_echo(clip: AudioClip, key: EchoKey) -> AudioClip:
    """Add a single echo: out[n] = x[n] + alpha * x[n - delta], x[m<0] = 0.

    Output length equals input length (no convolution tail).
    """
    if key.delta >= len(clip):
        raise ValueError(f"echo lag {key.delta} must be smaller than clip length {len(clip)}")
    out = clip.samples.copy()
    for start in range(0, out.size, MIX_BLOCK):
        add_echo(out[start : start + MIX_BLOCK], clip.samples, start, key)
    return AudioClip(out, clip.sample_rate)


def add_echo(block: np.ndarray, x: np.ndarray, start: int, key: EchoKey) -> np.ndarray:
    """Add key's echo alpha * x[n - delta] (x[m<0] = 0) to block, in place, and return it.

    block holds x[start : start + len(block)], as a slice of the output or a copy of its own.
    """
    stop = start + block.size
    if stop > key.delta:
        lo = max(start, key.delta)
        block[lo - start :] += key.alpha * x[lo - key.delta : stop - key.delta]
    return block


def embed_spread(clip: AudioClip, key: SpreadKey) -> AudioClip:
    """Embed a time-spread echo by convolving with key.kernel().

    Output is truncated to the input length.
    """
    if key.delta + key.length >= len(clip):
        raise ValueError(
            f"spread kernel (length {key.delta + key.length}) must be shorter "
            f"than the clip (length {len(clip)})"
        )
    out = convolve(clip, key.kernel())
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
