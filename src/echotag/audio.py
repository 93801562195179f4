"""Audio container, WAV file I/O, resampling and mixing.

Everything downstream works on `AudioClip`: a mono float64 buffer plus its
sample rate. Files of any supported bit depth are converted to that canonical
form on load so cepstra are never quantization-limited. Every file echotag
writes goes through `atomic_output`, so no output is ever left half-written.
scipy is imported inside the functions that call it: `scipy.signal`, which
only resampling uses, alone takes most of a second to import, and most
commands never resample.
"""

from __future__ import annotations

import functools
import logging
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 44100
# the formats save_audio writes
AUDIO_FORMATS = ("pcm16", "float32")
# what load_audio divides each sample type by (None: float, left as read); scipy
# returns 24-bit PCM upshifted into int32, so 2^31 scales both
_FULL_SCALE = {"int16": 2.0**15, "int32": 2.0**31, "float32": None, "float64": None}

# resampler design: windowed-sinc polyphase, Kaiser window
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 12.0
_MAX_POLYPHASE_FACTOR = 4096


@dataclass
class AudioClip:
    """Mono audio buffer.

    samples: float64 amplitudes, nominal range [-1, 1], all finite.
    sample_rate: positive rate in Hz.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional (mono)")
        if self.samples.size < 1:
            raise ValueError("AudioClip needs at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("AudioClip samples must be finite (no NaN/Inf)")
        self.sample_rate = int(self.sample_rate)
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")

    def __len__(self):
        return self.samples.size

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate

    def copy(self) -> "AudioClip":
        return AudioClip(self.samples.copy(), self.sample_rate)


def load_audio(path) -> AudioClip:
    """Read a RIFF/WAVE file as a mono AudioClip at the file's native rate.

    Supports 16/24-bit PCM and 32/64-bit IEEE float data, 1..8 channels; any
    other sample type is refused. Channels are averaged with equal weights in
    float64, and integer samples, of any channel count, then scaled to
    [-1, 1) by dividing by 2^(bits-1). Extra chunks (LIST, bext, ...) are
    skipped.
    """
    import scipy.io.wavfile

    with warnings.catch_warnings():
        # non-data chunks are tolerated by skipping, quietly
        warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)
        try:
            rate, data = scipy.io.wavfile.read(path)
        except ValueError as exc:
            raise ValueError(f"unsupported or compressed WAV file {path!r}: {exc}") from exc
    if data.size == 0:
        raise ValueError(f"zero-length audio in {path!r}")
    if data.dtype.name not in _FULL_SCALE:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path!r}")
    scale = _FULL_SCALE[data.dtype.name]
    if data.ndim == 2:
        if data.shape[1] > 8:
            raise ValueError(f"{path!r} has {data.shape[1]} channels; at most 8 supported")
        data = data.mean(axis=1, dtype=np.float64)
    samples = data.astype(np.float64) if scale is None else data / scale
    try:
        return AudioClip(samples, rate)
    except ValueError as exc:  # non-finite samples or a zero rate
        raise ValueError(f"{exc} in {path!r}") from exc


def save_audio(clip: AudioClip, path, format: str = "float32") -> int:
    """Write a clip as a WAV file in the given format ("pcm16" or "float32").

    For pcm16, samples outside [-1, 1] are clipped; the number of clipped
    samples is logged as a warning and returned (0 when nothing clipped).
    float32 output round-trips bit-exactly through load_audio.
    """
    import scipy.io.wavfile

    clipped = 0
    if format == "pcm16":
        x = clip.samples
        clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        if clipped:
            log.warning("save_audio: clipped %d out-of-range samples writing %s", clipped, path)
        data = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
    elif format == "float32":
        data = clip.samples.astype(np.float32)
    else:
        raise ValueError(f"unknown output format {format!r} (expected {' or '.join(map(repr, AUDIO_FORMATS))})")
    with atomic_output(path, "wb") as fh:
        scipy.io.wavfile.write(fh, clip.sample_rate, data)
    return clipped


@contextmanager
def atomic_output(path, mode: str = "w", **open_kwargs):
    """Open a new temp file beside `path` to write; it replaces `path` when the block
    ends and is removed if the block fails, so `path` is never left half-written."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, mode.replace("w", "x"), **open_kwargs)
    except OSError as exc:
        exc.filename = path  # name the output, not its temp file
        raise
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


@functools.lru_cache(maxsize=1)
def _design_resample_kernel(up: int, down: int) -> np.ndarray:
    # lowpass at min(fs_in, fs_out)/2 in the upsampled domain; resample_poly applies the gain
    # `up` to its own copy. The last is kept, read-only, for the next resample at that ratio.
    import scipy.signal

    m = max(up, down)
    n_taps = 2 * (RESAMPLE_TAPS_PER_PHASE // 2) * m + 1
    kernel = scipy.signal.firwin(n_taps, 1.0 / m, window=("kaiser", RESAMPLE_KAISER_BETA))
    kernel.flags.writeable = False
    return kernel


def resampled_length(n: int, rate: int, target_rate: int) -> int:
    """Samples resample returns for n samples at rate: round(n * target_rate / rate), at least 1."""
    return max(int(round(n * target_rate / rate)), 1)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited polyphase resampling to target_rate.

    Output length is resampled_length(len(clip), sample_rate, target_rate).
    Rates whose ratio the polyphase cap rounds to 1/1, equal rates among them,
    give a copy trimmed or zero-padded to that length; a ratio it rounds to 0
    (a target under about 1/8192 of the clip's rate) is refused.
    """
    target_rate = int(target_rate)
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    frac = Fraction(target_rate, clip.sample_rate)
    if max(frac.numerator, frac.denominator) > _MAX_POLYPHASE_FACTOR:
        frac = Fraction(target_rate, clip.sample_rate).limit_denominator(_MAX_POLYPHASE_FACTOR)
    up, down = frac.numerator, frac.denominator
    if up == 0:
        raise ValueError(f"cannot resample {clip.sample_rate} Hz to {target_rate} Hz: the polyphase "
                         f"cap of {_MAX_POLYPHASE_FACTOR} rounds their ratio to 0")
    if up == down:  # equal rates, or nearer than the cap can tell: 1/1 is the best ratio it has
        y = clip.samples.copy()
    else:
        import scipy.signal

        y = scipy.signal.resample_poly(clip.samples, up, down, window=_design_resample_kernel(up, down))
    n_out = resampled_length(len(clip), clip.sample_rate, target_rate)
    if y.size < n_out:
        y = np.pad(y, (0, n_out - y.size))
    return AudioClip(y[:n_out], target_rate)


def mix(clips, weights) -> AudioClip:
    """Weighted sum of clips sharing one sample rate.

    Shorter clips are zero-padded to the longest; output[n] = sum_i w[i] * clip_i[n].
    """
    clips = list(clips)
    weights = list(weights)
    if not clips:
        raise ValueError("mix needs at least one clip")
    if len(weights) != len(clips):
        raise ValueError(f"got {len(clips)} clips but {len(weights)} weights")
    rates = {c.sample_rate for c in clips}
    if len(rates) != 1:
        raise ValueError(f"mix requires one shared sample rate, got {sorted(rates)}")
    n = max(len(c) for c in clips)
    out = np.zeros(n)
    for c, w in zip(clips, weights):
        out[: len(c)] += w * c.samples
    return AudioClip(out, rates.pop())
