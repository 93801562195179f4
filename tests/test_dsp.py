import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echotag import AudioClip, SpreadKey, convolve, cross_correlate, enhance_correlation, real_cepstrum
from echotag.dsp import MIX_BLOCK
from helpers import SR, fft_convolve, noise_clip, scipy_correlate

# (delta, pattern length) of a spread kernel of 12-1,100 taps
SPREAD_KERNEL_SHAPES = st.integers(min_value=2, max_value=1024).flatmap(
    lambda length: st.tuples(st.integers(max(1, 12 - length), 1100 - length), st.just(length)))


def series_echo_cepstrum(alpha, delta, n, terms=80):
    """Analytic cepstrum of the kernel [1, 0...0, alpha] under a length-n DFT.

    log|1 + a z| expands as sum_k (-1)^(k+1) a^k z^k / k; splitting the real
    even spectrum puts a^k * (-1)^(k+1) / (2k) at lags +-k*delta (mod n).
    """
    c = np.zeros(n)
    for k in range(1, terms + 1):
        coeff = (-1.0) ** (k + 1) * alpha**k / (2 * k)
        c[(k * delta) % n] += coeff
        c[(-k * delta) % n] += coeff
    return c


def circular_convolve(x, h):
    n = len(x)
    hp = np.zeros(n)
    hp[: len(h)] = h
    return np.real(np.fft.ifft(np.fft.fft(x) * np.fft.fft(hp)))


class TestRealCepstrum:
    def test_unit_impulse_flat(self):
        x = np.zeros(1024)
        x[0] = 1.0
        c = real_cepstrum(AudioClip(x, SR))
        assert np.max(np.abs(c)) <= 1e-12

    def test_echo_kernel_power_series_oracle(self):
        n, alpha, delta = 4096, 0.4, 50
        kernel = np.zeros(n)
        kernel[0] = 1.0
        kernel[delta] = alpha
        c = real_cepstrum(AudioClip(kernel, SR))
        expected = series_echo_cepstrum(alpha, delta, n)
        assert np.max(np.abs(c - expected)) <= 1e-9
        # the frozen headline values
        assert abs(c[50] - 0.2) <= 1e-6
        assert abs(c[4046] - 0.2) <= 1e-6
        assert abs(c[100] - (-0.04)) <= 1e-6

    def test_additive_under_circular_convolution(self):
        # keep both spectra bounded away from the floor
        rng = np.random.default_rng(5)
        n = 2048
        mag_x = rng.uniform(0.5, 2.0, n // 2 + 1)
        x = np.fft.irfft(mag_x * np.exp(1j * rng.uniform(0, 2 * np.pi, n // 2 + 1)), n=n)
        h = np.zeros(64)
        h[0] = 1.0
        h[33] = 0.3
        y = circular_convolve(x, h)
        cx = real_cepstrum(AudioClip(x, SR))
        ch = real_cepstrum(AudioClip(np.concatenate([h, np.zeros(n - len(h))]), SR))
        cy = real_cepstrum(AudioClip(y, SR))
        assert np.max(np.abs(cy - (cx + ch))) <= 1e-8

    def test_symmetry(self):
        clip = noise_clip(9, seconds=0.1)
        c = real_cepstrum(clip)
        n = len(c)
        assert np.max(np.abs(c[1:] - c[1:][::-1])) <= 1e-9

    def test_odd_length_symmetry(self):
        clip = AudioClip(noise_clip(10, seconds=0.01).samples[:441], SR)
        c = real_cepstrum(clip)
        assert len(c) == 441
        assert np.max(np.abs(c[1:] - c[1:][::-1])) <= 1e-9

    def test_scaling_shifts_only_lag_zero(self):
        clip = noise_clip(12, seconds=0.05)
        scaled = AudioClip(clip.samples * 3.7, SR)
        c0 = real_cepstrum(clip)
        c1 = real_cepstrum(scaled)
        assert abs((c1[0] - c0[0]) - np.log(3.7)) <= 1e-9
        assert np.max(np.abs(c1[1:] - c0[1:])) <= 1e-9

    def test_all_zero_clip_permitted(self):
        c = real_cepstrum(AudioClip(np.zeros(256), SR))
        assert np.all(np.isfinite(c))

    def test_too_short(self):
        with pytest.raises(ValueError):
            real_cepstrum(AudioClip(np.ones(1), SR))

    @pytest.mark.parametrize("x", [np.float64(1.0), np.ones(1), np.ones((3, 1))],
                             ids=["0-d", "length-1", "3x1"])
    def test_too_short_arrays(self, x):
        with pytest.raises(ValueError, match="cepstrum needs at least 2 samples"):
            real_cepstrum(x)

    # a 2-D call on a stack of rows must give each row exactly what a 1-D
    # call on that row gives (tolerance 0)
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(min_value=0, max_value=8), n=st.integers(min_value=2, max_value=2049),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_rows_equal_one_dimensional_calls_property(self, rows, n, seed):
        x = np.random.default_rng(seed).standard_normal((rows, n))
        c = real_cepstrum(x)
        expected = np.stack([real_cepstrum(r) for r in x]) if rows else np.empty((0, n))
        assert c.shape == x.shape and c.dtype == np.float64
        assert np.array_equal(c, expected)


# smooth and non-smooth, odd and even lengths; 85,631 = 7 * 13 * 941 is a
# pitch-shifted segment length of the benchmark's eval-pitch workload
CEPSTRUM_LENGTHS = [2, 3, 251, 1023, 1024, 4099, 44100, 85631]


class TestRealCepstrumAtLags:
    """real_cepstrum(x, lags) against the whole inverse at those lags: atol 1e-12."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from(CEPSTRUM_LENGTHS) | st.integers(min_value=2, max_value=3000),
           rows=st.sampled_from([None, 1, 3]), data=st.data())
    def test_equals_the_whole_inverse_at_the_lags_property(self, n, rows, data):
        """Unsorted lags with repeats, always holding 1, N//2 (twice) and N-1; 1-D clips and 2-D stacks."""
        drawn = data.draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=120))
        lags = data.draw(st.permutations(drawn + [1, n // 2, n - 1, n // 2]))
        rng = np.random.default_rng([n, len(lags)])
        x = rng.standard_normal((rows, n) if rows else n)
        expected = real_cepstrum(x)[..., lags]
        c = real_cepstrum(AudioClip(x, SR) if rows is None else x, lags)
        assert c.shape == x.shape[:-1] + (len(lags),) and c.dtype == np.float64
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(real_cepstrum(1e-6 * x, lags), expected, rtol=0, atol=1e-12)
        assert np.all(real_cepstrum(np.zeros_like(x), lags) == 0.0)

    @pytest.mark.parametrize("shape, lags", [
        ((85631,), range(25, 126)),             # single-echo detection's band at a non-smooth N
        ((441000,), range(25, 126)),            # and at a 10 s clip's smooth N
        ((64, 1024), [50, 100]),                # a block of the payload decoder's windows
        ((109, 600), [125, 7]),
    ], ids=["band-85631", "band-441000", "decoder-64x1024", "decoder-109x600"])
    def test_the_callers_shapes(self, shape, lags):
        x = np.random.default_rng(shape).standard_normal(shape)
        expected = real_cepstrum(x)[..., list(lags)]
        np.testing.assert_allclose(real_cepstrum(x, lags), expected, rtol=0, atol=1e-12)

    def test_silent_rows_are_exact_zeros_beside_loud_ones(self):
        x = np.random.default_rng(3).standard_normal((4, 1024))
        x[[1, 3]] = 0.0
        c = real_cepstrum(x, [50, 100])
        assert np.all(c[[1, 3]] == 0.0)
        assert np.all(c[[0, 2]] != 0.0)

    @pytest.mark.parametrize("lags, message", [
        ([0], r"lags must lie in \[1, 1023\] for 1024 samples, got 0 to 0"),
        ([50, 1024], r"lags must lie in \[1, 1023\] for 1024 samples, got 50 to 1024"),
        ([-1, 50], r"got -1 to 50"),
        ([50.0], "lags must be a 1-D sequence of integers"),
        ([[50, 100]], "lags must be a 1-D sequence of integers"),
    ], ids=["lag-0", "lag-N", "negative", "float", "2-D"])
    def test_lags_outside_1_to_n_minus_1_refused(self, lags, message):
        with pytest.raises(ValueError, match=message):
            real_cepstrum(np.ones(1024), lags)

    def test_no_lags_is_an_empty_last_axis(self):
        assert real_cepstrum(np.ones((3, 16)), []).shape == (3, 0)


class TestConvolve:
    def test_identity_kernel(self):
        clip = noise_clip(1, seconds=0.01)
        out = convolve(clip, [1.0])
        assert np.allclose(out.samples, clip.samples, atol=1e-12)

    def test_impulse_clip_returns_kernel(self):
        x = np.zeros(16)
        x[0] = 1.0
        kernel = np.arange(1.0, 6.0)
        out = convolve(AudioClip(x, SR), kernel)
        assert len(out) == 16 + 5 - 1
        assert np.allclose(out.samples[:5], kernel, atol=1e-12)
        assert np.allclose(out.samples[5:], 0.0, atol=1e-12)

    def test_matches_direct_summation_large(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(10_000)
        h = rng.standard_normal(1_100)
        out = convolve(AudioClip(x, SR), h).samples
        direct = np.convolve(x, h)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(out - direct)) / scale <= 1e-9

    def test_empty_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve(noise_clip(0, seconds=0.01), [])

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=2000),
        k=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fft_equals_direct_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        h = rng.standard_normal(k)
        out = convolve(AudioClip(x, SR), h).samples
        direct = np.convolve(x, h)
        scale = max(np.max(np.abs(direct)), 1e-30)
        assert np.max(np.abs(out - direct)) / scale <= 1e-9

    # a spread embedding's shapes: a unit impulse at 0 plus +-alpha taps, kernels of
    # 12-1,100 taps, clips of 0.05-8 s; overlap-add takes its block path here
    @settings(max_examples=12, deadline=None)
    @given(
        shape=SPREAD_KERNEL_SHAPES,
        n=st.integers(min_value=2200, max_value=352_800),
        alpha=st.sampled_from([0.001, 0.01, 0.1]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(shape=(75, 1024), n=352_800, alpha=0.01, seed=0)  # eval-spread's 8 s cell
    def test_overlap_add_equals_fft_oracle_on_spread_shapes(self, shape, n, alpha, seed):
        delta, length = shape
        rng = np.random.default_rng(seed)
        kernel = SpreadKey(rng.integers(0, 2, length), alpha=alpha, delta=delta).kernel()
        x = rng.standard_normal(n)
        out = convolve(AudioClip(x, SR), kernel).samples
        oracle = fft_convolve(x, kernel)
        assert out.size == oracle.size == n + delta + length - 1
        assert np.max(np.abs(out - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def overlap_add_step(k):
    """convolve's block step for a k-tap kernel: the smallest power of two >= 8k, less k - 1."""
    nfft = 1
    while nfft < 8 * k:
        nfft *= 2
    return nfft - k + 1


class TestOverlapAddBlocks:
    # 1 and 2 taps, eval-spread's 1,099-tap kernel and the longest spread kernel (L = 8,192, delta = 75)
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.sampled_from([1, 2, 1_099, 8_267]),
        unit=st.sampled_from(["step", "group", "short"]),
        multiple=st.integers(min_value=1, max_value=3),
        offset=st.sampled_from([-1, 0, 1]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(k=1, unit="step", multiple=1, offset=-1, seed=0)  # a 7-sample clip, one partial block
    @example(k=2, unit="group", multiple=1, offset=1, seed=0)  # one sample into a second group
    @example(k=1_099, unit="group", multiple=3, offset=-1, seed=0)
    @example(k=8_267, unit="step", multiple=3, offset=1, seed=0)  # one block per group
    @example(k=1, unit="short", multiple=1, offset=-1, seed=0)  # a 1-sample clip
    @example(k=8_267, unit="short", multiple=1, offset=1, seed=0)  # 4,134 samples, one 16,384-point block
    def test_equals_direct_at_block_and_group_edges(self, k, unit, multiple, offset, seed):
        step = overlap_add_step(k)
        if unit == "short":  # under one step, where N + K - 1 sets the FFT length
            n = max(1, multiple * k // 2 + offset)
        else:
            n = multiple * (step if unit == "step" else max(1, MIX_BLOCK // step) * step) + offset
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        h = rng.standard_normal(k)
        out = convolve(AudioClip(x, SR), h).samples
        direct = np.convolve(x, h)
        assert out.size == direct.size == n + k - 1
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestCrossCorrelate:
    def test_autocorrelation_peak_at_offset(self):
        rng = np.random.default_rng(3)
        template = rng.choice([-1.0, 1.0], size=1024)
        c = np.zeros(4096)
        c[75 : 75 + 1024] = template
        out = cross_correlate(c, template)
        assert out[75] == pytest.approx(1024, abs=1e-6)
        assert np.argmax(out) == 75

    def test_zero_input(self):
        out = cross_correlate(np.zeros(100), np.ones(10))
        assert out.shape == (91,)
        assert np.max(np.abs(out)) <= 1e-12

    def test_matches_direct_sliding_dot(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(500)
        t = rng.choice([-1.0, 1.0], size=64)
        out = cross_correlate(c, t)
        direct = np.array([np.dot(c[n : n + 64], t) for n in range(500 - 64 + 1)])
        assert np.allclose(out, direct, atol=1e-9)

    def test_monte_carlo_mean_and_std(self):
        rng = np.random.default_rng(13)
        length = 1024
        c = rng.choice([-1.0, 1.0], size=length + 10_000)
        template = rng.choice([-1.0, 1.0], size=length)
        out = cross_correlate(c, template)
        assert out.size >= 10_000
        assert abs(np.mean(out)) <= 0.15 * np.sqrt(length)
        assert abs(np.std(out) - np.sqrt(length)) <= 0.15 * np.sqrt(length)

    def test_template_longer_than_cepstrum(self):
        with pytest.raises(ValueError):
            cross_correlate(np.zeros(10), np.ones(11))

    # spread_profile correlates a cepstrum prefix: the first n_lags lags read only
    # the first n_lags + L - 1 samples, so they must match the full correlation's
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=3000),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_prefix_correlation_matches_full_correlation_property(self, data, n, seed):
        length = data.draw(st.integers(min_value=1, max_value=n), label="length")
        n_lags = data.draw(st.integers(min_value=1, max_value=n - length + 1), label="n_lags")
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n)
        t = rng.choice([-1.0, 1.0], size=length)
        full = scipy.signal.correlate(c, t, mode="valid")[:n_lags]
        prefix = cross_correlate(c[: n_lags + length - 1], t)
        assert prefix.shape == full.shape
        assert np.max(np.abs(prefix - full)) <= 1e-12 * np.max(np.abs(full))

    # spread detection correlates the first 2L + delta + 1 cepstrum samples with an
    # L-bit template. scipy correlates such shapes directly, as numpy does, up to
    # L = 2,048 (2,508 at delta 75) and by FFT beyond, which rounds differently.
    @settings(max_examples=30, deadline=None)
    @given(length=st.integers(min_value=1, max_value=4096), delta=st.integers(min_value=0, max_value=200),
           seed=st.integers(min_value=0, max_value=2**31))
    @example(length=1024, delta=75, seed=0)
    @example(length=2048, delta=200, seed=1)
    @example(length=2560, delta=75, seed=2)
    @example(length=4096, delta=75, seed=3)
    def test_equals_scipy_correlate_on_spread_shapes(self, length, delta, seed):
        clip = noise_clip(seed, seconds=2.0, scale=1.0)
        c = real_cepstrum(clip)[: 2 * length + delta + 1]
        t = np.random.default_rng(seed).choice([-1.0, 1.0], size=length)
        gap = np.max(np.abs(cross_correlate(c, t) - scipy_correlate(c, t)))
        assert gap <= (0.0 if length <= 2048 else 1e-12)


class TestEnhanceCorrelation:
    def test_impulse(self):
        x = np.zeros(151)
        x[75] = 1.0
        out = enhance_correlation(x)
        assert out[75] == 1.0
        assert out[74] == -0.5
        assert out[76] == -0.5
        assert np.count_nonzero(out) == 3

    def test_constant_interior_zero(self):
        out = enhance_correlation(np.full(50, 3.25))
        assert np.max(np.abs(out[1:-1])) <= 1e-12
        # boundaries keep half the missing neighbor
        assert out[0] == pytest.approx(3.25 - 0.5 * 3.25)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(257)
        out = enhance_correlation(x)
        padded = np.concatenate(([0.0], x, [0.0]))
        direct = x - 0.5 * padded[:-2] - 0.5 * padded[2:]
        assert np.allclose(out, direct, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            enhance_correlation(np.ones(2))
