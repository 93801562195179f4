"""Shared test utilities: seeded signal factories, a small music synth, a
tracemalloc peak probe, and the loop versions that vectorized code is checked against: the scalar
exclusion z-score for zscore_profile, scipy's correlation for
cross_correlate, the per-window and whole-clip payload decoders
for decode_payload, the whole-clip envelope and mix for the blockwise
encode_payload, the bit-by-bit run scans and pairwise Hamming loop for
patterns.max_run_length, repair_runs and PatternSet.distance_matrix, the
single-echo kernel that embed_single_echo must equal a convolution with and
the whole-clip add that its blockwise add must equal, and
the unmemoized forms of the work an evaluate cell shares between its two
conditions: the whole-clip FFT convolution, a fresh-rng additive_noise draw
and a resample plan built without the cache, scipy's resample_poly that
resample replaced, and the recursions over a composite channel's stages that
harness's one stage walk replaced.

The synthetic music clips stand in for real corpus material: bass, chords,
melody and percussion with per-note envelopes, deterministic per seed.
"""

import tracemalloc

import numpy as np
import scipy.signal

from echotag import AudioClip, EchoKey, embed_single_echo, real_cepstrum, resample
from echotag.audio import (RESAMPLE_KAISER_BETA, RESAMPLE_TAPS_PER_PHASE, _polyphase, _resample_plan,
                           resampled_length)
from echotag.detect import SIGMA_FLOOR
from echotag.patterns import MAX_RUN

SR = 44100
# stage i of a composite channel run under salt s runs under salt s * SALT_STRIDE + i
SALT_STRIDE = 1000003


def exclusion_zscore(values, i: int, a: int, b: int, halfwidth: int = 0):
    """Exclusion z-score of values[i] against the band [a, b], one lag at a time.

    The mean and (population) standard deviation are taken over indices
    j in [a, b] with |j - i| > halfwidth; halfwidth=0 excludes only i itself.
    Returns (z, degenerate); degenerate results carry z = 0.0 rather than
    propagating NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 0 <= a <= i <= b < values.size:
        raise ValueError(f"need 0 <= a <= i <= b < len(values); got a={a}, i={i}, b={b}")
    j = np.arange(a, b + 1)
    kept = values[a : b + 1][np.abs(j - i) > halfwidth]
    if kept.size < 2:
        raise ValueError("fewer than 2 samples remain after exclusion")
    mu = kept.mean()
    sigma = np.sqrt(np.mean((kept - mu) ** 2))
    if sigma < SIGMA_FLOOR:
        return 0.0, True
    return float((values[i] - mu) / sigma), False


def decode_payload_whole_clip(clip, config, n_bits):
    """decode_payload as one 2-D cepstrum over all n_bits windows as rows."""
    windows = clip.samples[: n_bits * config.window].reshape(n_bits, config.window)
    c = real_cepstrum(windows)
    return (c[:, config.delta0] <= c[:, config.delta1]).astype(np.uint8)


def decode_payload_per_window(clip, config, n_bits):
    """decode_payload one window at a time: one 1-D cepstrum per bit."""
    bits = np.empty(n_bits, dtype=np.uint8)
    for k in range(n_bits):
        window = clip.samples[k * config.window : (k + 1) * config.window]
        c = real_cepstrum(window)
        bits[k] = 0 if c[config.delta0] > c[config.delta1] else 1
    return bits


def embed_single_echo_whole_clip(clip, key) -> np.ndarray:
    """embed_single_echo's samples with the scaled copy added as one clip-length array."""
    out = clip.samples.copy()
    out[key.delta :] += key.alpha * clip.samples[: -key.delta]
    return out


def encode_payload_whole_clip(clip, bits, config) -> np.ndarray:
    """encode_payload's samples from one whole-clip envelope and one whole-clip mix."""
    bits = np.asarray(bits, dtype=np.float64)
    if config.alpha == 0:
        return clip.samples.copy()
    x0 = embed_single_echo(clip, EchoKey(config.delta0, config.alpha)).samples
    if bits.size == 0:
        return x0
    x1 = embed_single_echo(clip, EchoKey(config.delta1, config.alpha)).samples
    centers = (np.arange(bits.size) + 0.5) * config.window
    envelope = np.interp(np.arange(len(clip)), centers, bits)
    return (1.0 - envelope) * x0 + envelope * x1


def max_run_length_loop(pattern) -> int:
    """Longest run of equal bits, one bit at a time."""
    bits = np.asarray(pattern)
    best = run = 1
    for i in range(1, bits.size):
        run = run + 1 if bits[i] == bits[i - 1] else 1
        best = max(best, run)
    return best


def repair_runs_loop(pattern) -> np.ndarray:
    """repair_runs walking each sweep's runs left to right, one bit at a time.

    Bounded by L sweeps, at least the log2(L) + 1 that repair_runs' termination
    argument allows, so a wrong argument fails a comparison instead of hanging it.
    """
    bits = np.asarray(pattern, dtype=np.uint8).copy()
    n = bits.size
    for _ in range(n):
        changed = False
        i = 0
        while i < n:
            j = i
            while j + 1 < n and bits[j + 1] == bits[i]:
                j += 1
            if j - i + 1 > MAX_RUN:
                bits[(i + j) // 2] ^= 1
                changed = True
            i = j + 1
        if not changed:
            return bits
    raise AssertionError(f"run repair still changing bits after {n} sweeps")


def hamming(pattern_a, pattern_b) -> int:
    """Count of differing positions between two equal-length bit sequences."""
    a = np.asarray(pattern_a)
    b = np.asarray(pattern_b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return int(np.count_nonzero(a != b))


def distance_matrix_loop(patterns) -> np.ndarray:
    """Pairwise Hamming distances, one pair at a time."""
    count = len(patterns)
    m = np.zeros((count, count), dtype=int)
    for i in range(count):
        for j in range(i + 1, count):
            m[i, j] = m[j, i] = hamming(patterns[i], patterns[j])
    return m


def single_echo_kernel(key) -> np.ndarray:
    """Convolution kernel of a single echo: [1, 0 x (delta-1), alpha]."""
    kernel = np.zeros(key.delta + 1)
    kernel[0] = 1.0
    kernel[key.delta] = key.alpha
    return kernel


def fft_convolve(x, h) -> np.ndarray:
    """Full linear convolution by one whole-clip FFT (scipy's fftconvolve)."""
    return scipy.signal.fftconvolve(x, h, mode="full")


def scipy_correlate(cepstrum, template) -> np.ndarray:
    """cross_correlate's output by scipy.signal.correlate, which correlates
    directly (by np.correlate) or by FFT, whichever its size model finds faster."""
    return scipy.signal.correlate(cepstrum, template, mode="valid")


def additive_noise_fresh(clip, spec, salt) -> np.ndarray:
    """apply_channel's additive_noise samples, drawn from a fresh rng every call."""
    rng = np.random.default_rng([spec.seed, salt, 11])
    noise = rng.standard_normal(len(clip))
    measured = np.sqrt(np.mean(noise**2))
    target = float(np.sqrt(np.mean(clip.samples**2))) * 10.0 ** (-spec.snr_db / 20.0)
    return clip.samples + (noise if measured == 0 else noise * (target / measured))


def _pitch_shift_recursive(clip, factor):
    return AudioClip(resample(clip, int(round(clip.sample_rate / factor))).samples, clip.sample_rate)


def apply_channel_recursive(clips, spec, salt=0) -> list:
    """apply_channel with a composite calling it again on each of its stages."""
    kind = spec.kind
    if kind in ("identity", "attenuate_echo") or (kind == "composite" and not spec.stages):
        return [clip.copy() for clip in clips]
    if kind == "composite":
        for index, stage in enumerate(spec.stages):
            clips = apply_channel_recursive(clips, stage, salt=salt * SALT_STRIDE + index)
        return clips
    rng = np.random.default_rng([spec.seed, salt, 11])
    if kind == "additive_noise":
        return [AudioClip(additive_noise_fresh(clip, spec, salt), clip.sample_rate) for clip in clips]
    if kind == "random_resample":
        if rng.random() < spec.probability:
            factor = rng.uniform(spec.low, spec.high)
            return [_pitch_shift_recursive(clip, factor) for clip in clips]
        return [clip.copy() for clip in clips]
    raise ValueError(f"unknown channel kind {kind!r}")


def channel_length_bound_recursive(spec, n: int, rate: int) -> int:
    """channel_length_bound with a composite folding its stages' bounds by recursion."""
    if spec.kind == "composite":
        for stage in spec.stages:
            n = channel_length_bound_recursive(stage, n, rate)
        return n
    if spec.kind == "random_resample" and spec.probability > 0:
        shifted = resampled_length(n, rate, int(round(rate / spec.high)))
        return shifted if spec.probability == 1 else min(n, shifted)
    return n


def echo_alpha_scale_recursive(spec) -> float:
    """echo_alpha_scale with a composite multiplying its stages' own products."""
    if spec.kind == "attenuate_echo":
        return spec.ratio
    if spec.kind == "composite":
        out = 1.0
        for stage in spec.stages:
            out *= echo_alpha_scale_recursive(stage)
        return out
    return 1.0


def resample_uncached(clip, up: int, down: int) -> np.ndarray:
    """resample's samples for the ratio up/down (coprime, both at most the
    polyphase cap, up != down), from a plan built without the cache."""
    n_out = resampled_length(len(clip), down, up)
    return _polyphase(clip.samples, _resample_plan.__wrapped__(up, down), n_out)


def resample_fresh(clip, up: int, down: int) -> np.ndarray:
    """resample's samples for the ratio up/down (coprime, both at most the
    polyphase cap, up != down) by scipy's resample_poly, with the kernel
    designed by firwin every call."""
    m = max(up, down)
    n_taps = 2 * (RESAMPLE_TAPS_PER_PHASE // 2) * m + 1
    kernel = scipy.signal.firwin(n_taps, 1.0 / m, window=("kaiser", RESAMPLE_KAISER_BETA))
    y = scipy.signal.resample_poly(clip.samples, up, down, window=kernel)
    n_out = resampled_length(len(clip), down, up)
    return np.pad(y, (0, max(n_out - y.size, 0)))[:n_out]


def noise_clip(seed, seconds=10.0, rate=SR, scale=0.1):
    rng = np.random.default_rng(seed)
    return AudioClip(scale * rng.standard_normal(int(round(seconds * rate))), rate)


def sine_clip(freq, seconds=1.0, rate=SR, amplitude=0.5):
    t = np.arange(int(round(seconds * rate))) / rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq * t), rate)


def _adsr(n, attack, decay, sustain, release, rate=SR):
    env = np.full(n, sustain)
    na = min(int(attack * rate), n)
    nd = min(int(decay * rate), max(n - na, 0))
    nr = min(int(release * rate), n)
    env[:na] = np.linspace(0, 1, na, endpoint=False)
    env[na:na + nd] = np.linspace(1, sustain, nd, endpoint=False)
    if nr > 0:
        env[-nr:] *= np.linspace(1, 0, nr)
    return env


def _tone(f0, n, rng, n_harmonics=6, rate=SR):
    t = np.arange(n) / rate
    vibrato = 1 + 0.002 * np.sin(2 * np.pi * 5.2 * t + rng.uniform(0, 2 * np.pi))
    harmonics = np.arange(1, n_harmonics + 1)
    amps = 1.0 / harmonics**1.4
    phases = rng.uniform(0, 2 * np.pi, size=n_harmonics)
    phase = 2 * np.pi * f0 * vibrato * t
    return (amps[:, None] * np.sin(harmonics[:, None] * phase[None, :] + phases[:, None])).sum(axis=0)


def _drum(n, rng, kind, rate=SR):
    t = np.arange(n) / rate
    if kind == "kick":
        freq = 110 * np.exp(-t * 18) + 45
        return np.sin(2 * np.pi * np.cumsum(freq) / rate) * np.exp(-t * 9)
    decay = 25 if kind == "snare" else 60
    return rng.standard_normal(n) * np.exp(-t * decay)


def music_clip(seed, seconds=10.0, rate=SR):
    """Deterministic music-like clip: bass + chords + melody + drums."""
    rng = np.random.default_rng([seed, 777])
    n = int(round(seconds * rate))
    out = np.zeros(n)
    roots = rng.choice([55.0, 61.74, 65.41, 73.42, 82.41, 98.0], size=4)
    beat = 60.0 / rng.uniform(85, 130)

    def place(start_s, length_s, level, make):
        i0 = int(start_s * rate)
        nseg = min(int(length_s * rate), n - i0)
        if nseg <= 0:
            return
        out[i0:i0 + nseg] += level * make(nseg)

    pos = 0.0
    while pos < seconds:
        f0 = float(rng.choice(roots)) * rng.choice([1, 1, 2])
        dur = beat * rng.choice([1, 2])
        place(pos, dur, 0.5,
              lambda m: _tone(f0, m, rng)[:m] * _adsr(m, 0.01, 0.08, 0.5, 0.05))
        pos += dur
    pos = 0.0
    while pos < seconds:
        root = float(rng.choice(roots)) * 4
        place(pos, beat * 2, 0.22, lambda m: sum(
            _tone(root * ratio, m, rng, n_harmonics=5)[:m] for ratio in (1.0, 1.25, 1.5)
        ) * _adsr(m, 0.02, 0.2, 0.4, 0.1))
        pos += beat * 2
    pos = beat * float(rng.integers(0, 2))
    while pos < seconds:
        f0 = float(rng.choice(roots)) * rng.choice([4, 5, 6, 8])
        dur = beat * rng.choice([0.5, 1])
        place(pos, dur, 0.18,
              lambda m: _tone(f0, m, rng, n_harmonics=4)[:m] * _adsr(m, 0.01, 0.1, 0.55, 0.08))
        pos += dur
    pos, hit_index = 0.0, 0
    while pos < seconds:
        kind = "kick" if hit_index % 2 == 0 else "snare"
        place(pos, 0.25, 0.4, lambda m: _drum(m, rng, kind))
        place(pos + beat / 2, 0.08, 0.12, lambda m: _drum(m, rng, "hat"))
        pos += beat
        hit_index += 1
    return AudioClip(0.5 * out / np.abs(out).max(), rate)


def traced_peak(function, *args) -> int:
    """Peak bytes tracemalloc sees allocated during function(*args)."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
