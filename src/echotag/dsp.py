"""Spectral core: real cepstrum, convolution, cross-correlation.

The real cepstrum is ifft(log|fft(x)|) taken over the whole buffer (or each
row of a stack of them), with no analysis window and no padding; an echo at
lag d shows up as a peak at quefrency d (and its mirror N-d). With `lags`,
real_cepstrum computes only the lags a caller reads, with no inverse FFT:
single-echo detection's band and the payload decoder's two lags. Spread
detection and the bit-flip curve take the whole inverse.
Everything here runs on numpy alone: convolve is an overlap-add of numpy
FFTs, so spread embedding loads no `scipy.signal`.
"""

from __future__ import annotations

import math

import numpy as np

from .audio import AudioClip

# samples per group of convolve's blocks, and per block of the echo add and the
# payload codec: temporaries stay a few MB at any length
MIX_BLOCK = 1 << 16
# magnitude floor applied before the log so silent or band-limited input
# yields a finite cepstrum
SPECTRAL_FLOOR = 1e-12
# real_cepstrum(lags=) projects in one block of all bins while bins * lags is at
# most this (the payload decoder's 513 x 2), and in blocks of about sqrt(bins) past it
ONE_BLOCK_TERMS = 1 << 12


def real_cepstrum(clip, lags=None) -> np.ndarray:
    """Real cepstrum of a clip (or bare sample array), along the last axis.

    Inputs:
        clip: AudioClip, or an (..., N) array with N >= 2 whose length-N rows
            are each transformed as a 1-D call on that row would be
        lags: None for every lag, or a 1-D sequence of integer lags in
            [1, N - 1], in any order, repeats allowed
    Output:
        float64 array indexed by lag along the last axis: of the input's shape
        without `lags`, symmetric about N/2 (values[k] == values[N-k]) since
        the log spectrum is real and even; with `lags`, of shape
        (..., len(lags)), the cepstrum at those lags, equal to the whole
        inverse up to rounding and exactly 0 at every lag of a flat log
        spectrum (silent input). Lag 0, the log level, is refused there.
    """
    x = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("cepstrum needs at least 2 samples")
    n = x.shape[-1]
    if lags is not None:
        lags = np.asarray(lags)
        if lags.ndim != 1 or (lags.size and lags.dtype.kind not in "iu"):
            raise ValueError("lags must be a 1-D sequence of integers")
        if lags.size and not (1 <= lags.min() and lags.max() < n):
            raise ValueError(f"cepstrum lags must lie in [1, {n - 1}] for {n} samples, "
                             f"got {lags.min()} to {lags.max()}")
    magnitude = np.abs(np.fft.rfft(x, axis=-1))
    if lags is None:
        return np.fft.irfft(np.log(np.maximum(magnitude, SPECTRAL_FLOOR)), n=n, axis=-1)
    return _cepstrum_at(magnitude, n, lags.astype(np.int64))


def _cepstrum_at(magnitude: np.ndarray, n: int, lags: np.ndarray) -> np.ndarray:
    """c[q] = (2/n) sum_k w_k log|X_k| cos(2 pi k q / n) over the one-sided bins.

    w_k is 1, and 1/2 at the Nyquist bin of an even n; bin 0's log is
    subtracted from every bin first, which moves only lag 0. The bins go in
    blocks k = j * block + r: one matrix product against a (block, 2m) table
    of cos and sin(2 pi r q / n) gives each block's sums, and the angle sum
    cos(a + b) = cos a cos b - sin a sin b turns them into the lag's sum with a
    (blocks, m) table of phases 2 pi j block q / n. Every angle is reduced
    mod n in integers before it is scaled.
    """
    bins = magnitude.shape[-1]
    m = lags.size
    block = bins if bins * m <= ONE_BLOCK_TERMS else math.isqrt(bins - 1) + 1
    blocks = -(-bins // block)
    spectrum = np.zeros(magnitude.shape[:-1] + (blocks * block,))  # zero past the last bin
    logmag = spectrum[..., :bins]
    np.log(np.maximum(magnitude, SPECTRAL_FLOOR, out=logmag), out=logmag)
    logmag -= logmag[..., :1]
    if n % 2 == 0:
        logmag[..., -1] *= 0.5
    angle = (2.0 * np.pi / n) * (np.arange(block)[:, None] * lags % n)
    if blocks == 1:
        return (2.0 / n) * (spectrum @ np.cos(angle))
    table = np.concatenate([np.cos(angle), np.sin(angle)], axis=1)
    sums = (spectrum.reshape(-1, block) @ table).reshape(magnitude.shape[:-1] + (blocks, 2 * m))
    phase = (2.0 * np.pi / n) * (block * np.arange(blocks)[:, None] * lags % n)
    return (2.0 / n) * np.sum(np.cos(phase) * sums[..., :m] - np.sin(phase) * sums[..., m:], axis=-2)


def convolve(clip: AudioClip, kernel) -> AudioClip:
    """Full linear convolution of a clip with a kernel, by overlap-add FFT.

    Output length is len(clip) + len(kernel) - 1 at the clip's rate. For K
    taps and N samples the FFT length is the smallest power of two >=
    min(8K, N + K - 1): a clip that short is one block. Otherwise each block
    takes step = FFT length - K + 1 >= 7K + 1 samples, so a block's tail of
    K - 1 samples reaches only the next block: each output sample is a
    block's body plus at most one tail, both added to zeros, whatever the
    grouping. Blocks are transformed in groups of about MIX_BLOCK samples, so
    besides the output (len(clip) + K - 1 + step samples at most)
    temporaries stay a few MB at any clip length.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size < 1:
        raise ValueError("kernel must be a non-empty 1-D sequence")
    x, k = clip.samples, kernel.size
    nfft = 1 << (min(8 * k, x.size + k - 1) - 1).bit_length()
    step = nfft - k + 1
    response = np.fft.rfft(kernel, nfft)
    blocks = -(-x.size // step)
    y = np.zeros(blocks * step + k - 1)
    group = max(1, MIX_BLOCK // step)
    for first in range(0, blocks, group):
        rows = min(group, blocks - first)
        lo, hi = first * step, (first + rows) * step
        chunk = x[lo:hi]
        if chunk.size < hi - lo:  # the last block, zero-padded
            chunk = np.concatenate((chunk, np.zeros(hi - lo - chunk.size)))
        spectrum = np.fft.rfft(chunk.reshape(rows, step), nfft)
        spectrum *= response
        out = np.fft.irfft(spectrum, nfft)
        y[lo:hi].reshape(rows, step)[...] += out[:, :step]
        if rows > 1:  # a lone block may be shorter than its tail
            y[lo + step : hi].reshape(rows - 1, step)[:, : k - 1] += out[:-1, step:]
        y[hi : hi + k - 1] += out[-1, step:]
    return AudioClip(y[: x.size + k - 1], clip.sample_rate)


def cross_correlate(cepstrum, template) -> np.ndarray:
    """Sliding dot product of a cepstrum with a +-1 template.

    out[n] = sum_k cepstrum[n + k] * template[k] for n in [0, N - L]; the sum
    is left unnormalized (downstream z-scoring is scale-invariant). A pattern
    embedded at lag d peaks at index d.
    numpy's direct sum costs O((N - L + 1) L): on detection's 2L + delta + 1
    samples, 0.13 ms at L = 1,024 but 3.8 ms at L = 4,096 and 15 ms at
    L = 8,192 on a 2-core VM, where scipy's FFT correlation takes 0.3-0.8 ms.
    """
    c = np.asarray(cepstrum, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64)
    if t.size > c.size:
        raise ValueError(f"template (length {t.size}) longer than cepstrum (length {c.size})")
    return np.correlate(c, t, mode="valid")


def enhance_correlation(cstar) -> np.ndarray:
    """Sharpen a correlation signal: out[n] = c*[n] - 0.5 c*[n-1] - 0.5 c*[n+1].

    Out-of-range neighbors count as zero, so boundary samples subtract only
    the neighbor that exists.
    """
    c = np.asarray(cstar, dtype=np.float64)
    if c.size < 3:
        raise ValueError("enhancement needs at least 3 samples")
    out = c.copy()
    out[:-1] -= 0.5 * c[1:]
    out[1:] -= 0.5 * c[:-1]
    return out
