"""Audio container, WAV file I/O, resampling and mixing.

Everything downstream works on `AudioClip`: a mono float64 buffer plus its
sample rate. Files of any supported bit depth are converted to that canonical
form on load so cepstra are never quantization-limited. Every file echotag
writes goes through `atomic_output`, so no output is ever left half-written.
scipy is imported only inside load_audio and save_audio, for WAV I/O:
resampling is a polyphase filter of numpy matrix products, so no command
loads `scipy.signal`, which alone takes most of a second to import.
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
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 44100
# samples per group of resample's windows and of convolve's blocks, and per block of
# the echo add and the payload codec: temporaries stay a few MB at any length
MIX_BLOCK = 1 << 16
# the formats save_audio writes
AUDIO_FORMATS = ("pcm16", "float32")
# what load_audio divides each sample type by (None: float, left as read); scipy
# returns 24-bit PCM upshifted into int32, so 2^31 scales both
_FULL_SCALE = {"int16": 2.0**15, "int32": 2.0**31, "float32": None, "float64": None}

# resampler design: windowed-sinc polyphase, Kaiser window
RESAMPLE_TAPS_PER_PHASE = 64
RESAMPLE_KAISER_BETA = 12.0
_MAX_POLYPHASE_FACTOR = 4096
# the largest term of a rounded ratio that resample designs a kernel for, at 64 taps a term
_MAX_RATIO_TERM = 1 << 17
# multiply-adds in one of resample's matrix products: the plan alone sets their shape
_PRODUCT_TERMS = 1 << 16


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


def _design_resample_kernel(up: int, down: int) -> np.ndarray:
    # unit-sum lowpass at min(fs_in, fs_out)/2 in the upsampled domain: a sinc under a Kaiser
    # window, 64 taps a term of the ratio; it is even, so its left half and centre are computed
    m = max(up, down)
    half = RESAMPLE_TAPS_PER_PHASE // 2 * m
    t = np.arange(-half, 1)
    left = np.sinc(t / m) * np.i0(RESAMPLE_KAISER_BETA * np.sqrt(1 - (t / half) ** 2))
    kernel = np.concatenate((left, left[-2::-1]))
    return kernel / kernel.sum()


@functools.lru_cache(maxsize=1)
def _resample_plan(up: int, down: int):
    """The polyphase plan (taps, first, rows, period, advance) for up/down, kept read-only.

    resample_poly's output n is up * sum_q x[q] h[n * down + half - up * q] for the kernel h,
    so a cycle of p periods gives `period` = p * up outputs from the input `advance` = p * down
    samples on (p: the most, at least 1, with at most 64 outputs and 64^2 inputs a cycle).
    Its outputs go in chunks of at most 64, the last padded past the cycle: chunk c of cycle k
    is the window x[k * advance + first[c]:][:span] @ taps[c], a (span, C) matrix. One matrix
    product takes `rows` cycles of a chunk, about _PRODUCT_TERMS multiply-adds.
    """
    h = up * _design_resample_kernel(up, down)
    half = h.size // 2
    p = max(1, min(RESAMPLE_TAPS_PER_PHASE // up, RESAMPLE_TAPS_PER_PHASE**2 // down))
    chunks = -(-p * up // RESAMPLE_TAPS_PER_PHASE)
    j = np.arange(chunks * -(-p * up // chunks)).reshape(chunks, 1, -1)  # each chunk's outputs in the cycle
    first = -((half - j[:, :, :1] * down) // up)  # the first input each chunk's phases weigh
    span = int(((j[:, :, -1:] * down + half) // up - first).max()) + 1
    index = j * down + half - up * (first + np.arange(span)[:, None]) + 1  # into h with a zero at each end
    taps = np.pad(h, 1)[np.clip(index, 0, h.size + 1, out=index)]
    first = first[:, 0, 0]
    taps.flags.writeable = first.flags.writeable = False
    return taps, first, max(1, _PRODUCT_TERMS // taps[0].size), p * up, p * down


def _polyphase(x: np.ndarray, plan, n: int) -> np.ndarray:
    """resample_poly's output for x with the plan's kernel, cut or zero-padded to n samples.

    Groups of whole products, about MIX_BLOCK window samples each, keep temporaries a few MB;
    every product has the plan's shape, padded past the last cycle, so grouping changes no value.
    """
    taps, first, rows, period, advance = plan
    chunks, span, width = taps.shape
    n_keep = min(n, -(-x.size * period // advance))  # resample_poly's length
    cycles = -(-n_keep // (rows * period)) * rows
    group = max(1, MIX_BLOCK // (chunks * rows * span)) * rows
    y = np.zeros(n)
    for k in range(0, cycles, group):
        g = min(group, cycles - k)
        lo, hi = k * advance + first[0], (k + g - 1) * advance + first[-1] + span
        part = x[max(lo, 0) : hi]
        seg = np.zeros(hi - lo)
        seg[max(-lo, 0) :][: part.size] = part
        windows = sliding_window_view(seg, span)[first[:, None] - first[0] + advance * np.arange(g)]
        out = (windows.reshape(chunks, g // rows, rows, span) @ taps[:, None]).reshape(chunks, g, width)
        out = out.transpose(1, 0, 2).reshape(g, -1)[:, :period].ravel()  # in output order
        stop = min((k + g) * period, n_keep)
        y[k * period : stop] = out[: stop - k * period]
    return y


def resampled_length(n: int, rate: int, target_rate: int) -> int:
    """Samples resample returns for n samples at rate: round(n * target_rate / rate), at least 1."""
    return max(int(round(n * target_rate / rate)), 1)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited polyphase resampling to target_rate.

    The ratio of the rates, its terms rounded to at most the polyphase cap,
    is up/down. The output is scipy.signal.resample_poly(x, up, down) with
    the same Kaiser-windowed sinc kernel, to within 1e-12 of the input's peak,
    cut or zero-padded to resampled_length(len(clip), sample_rate, target_rate).
    A ratio rounded to 1/1, equal rates among them, gives a copy. A ratio
    rounded to 0 (a target under about 1/8192 of the clip's rate), or to one
    with a term over 2^17 (a target over 32 times the clip's rate), is refused.
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
    if max(up, down) > _MAX_RATIO_TERM:
        raise ValueError(f"cannot resample {clip.sample_rate} Hz to {target_rate} Hz: the polyphase "
                         f"cap of {_MAX_POLYPHASE_FACTOR} rounds their ratio to {up}/{down}, and a term "
                         f"over {_MAX_RATIO_TERM} is refused")
    n_out = resampled_length(len(clip), clip.sample_rate, target_rate)
    if up == down:  # equal rates, or nearer than the cap can tell: 1/1 is the best ratio it has
        y = np.pad(clip.samples, (0, max(n_out - len(clip), 0)))[:n_out]
    else:
        y = _polyphase(clip.samples, _resample_plan(up, down), n_out)
    return AudioClip(y, target_rate)


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
