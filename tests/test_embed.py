import numpy as np
import pytest

from echotag import (
    AudioClip,
    EchoKey,
    SpreadKey,
    build_echo_kernel,
    convolve,
    detect_spread,
    embed_single_echo,
    embed_spread,
    generate_pattern,
    real_cepstrum,
)
from echotag.embed import scaled_key
from helpers import SR, noise_clip


class TestKeys:
    def test_echo_key_validation(self):
        with pytest.raises(ValueError):
            EchoKey(0)
        with pytest.raises(ValueError):
            EchoKey(50, alpha=1.0)
        with pytest.raises(ValueError):
            EchoKey(50, alpha=-0.1)
        assert EchoKey(75).alpha == 0.4

    def test_spread_key_validation(self):
        with pytest.raises(ValueError):
            SpreadKey(np.array([1]))
        with pytest.raises(ValueError):
            SpreadKey(np.array([0, 2]))
        key = SpreadKey(generate_pattern(1024, 0))
        assert key.alpha == 0.01 and key.delta == 75 and key.length == 1024

    def test_scaled_key(self):
        key = scaled_key(EchoKey(75, 0.4), 0.5)
        assert key.alpha == pytest.approx(0.2)
        assert key.delta == 75


class TestKernels:
    def test_single_echo_kernel(self):
        assert np.array_equal(build_echo_kernel(EchoKey(2, 0.4)), [1.0, 0.0, 0.4])

    def test_spread_kernel_two_bits(self):
        key = SpreadKey(np.array([1, 0]), alpha=0.01, delta=1)
        assert np.allclose(build_echo_kernel(key), [1.0, 0.01, -0.01])

    def test_kernel_is_impulse_response(self):
        impulse = np.zeros(2000)
        impulse[0] = 1.0
        for key in (EchoKey(50), SpreadKey(generate_pattern(256, 1), delta=30)):
            kernel = build_echo_kernel(key)
            out = convolve(AudioClip(impulse, SR), kernel).samples
            assert np.allclose(out[: len(kernel)], kernel, atol=1e-12)
            assert np.allclose(out[len(kernel):], 0.0, atol=1e-12)


class TestEmbedSingleEcho:
    def test_impulse_response(self):
        x = np.zeros(200)
        x[0] = 1.0
        out = embed_single_echo(AudioClip(x, SR), EchoKey(50, 0.4))
        assert len(out) == 200
        assert out.samples[0] == 1.0
        assert out.samples[50] == 0.4
        assert np.count_nonzero(out.samples) == 2

    def test_alpha_zero_identity(self):
        clip = noise_clip(0, seconds=0.05)
        out = embed_single_echo(clip, EchoKey(75, 0.0))
        assert np.array_equal(out.samples, clip.samples)

    def test_delta_too_large(self):
        with pytest.raises(ValueError):
            embed_single_echo(AudioClip(np.zeros(50), SR), EchoKey(75))

    def test_cepstral_peak_on_noise(self):
        # first-order cepstral coefficient alpha/2 = 0.2 rides on carrier noise
        clip = noise_clip(21, seconds=10.0, scale=1.0)
        tagged = embed_single_echo(clip, EchoKey(75, 0.4))
        c = real_cepstrum(tagged)
        band = c[25:126]
        assert 25 + int(np.argmax(band)) == 75
        assert abs(c[75] - 0.2) <= 0.05

    def test_matches_kernel_convolution(self):
        clip = noise_clip(22, seconds=0.5)
        key = EchoKey(76, 0.4)
        direct = embed_single_echo(clip, key).samples
        via_kernel = convolve(clip, build_echo_kernel(key)).samples[: len(clip)]
        assert np.max(np.abs(direct - via_kernel)) <= 1e-9

    def test_linear_in_carrier(self):
        a, b = noise_clip(23, seconds=0.1), noise_clip(24, seconds=0.1)
        key = EchoKey(100, 0.4)
        lhs = embed_single_echo(AudioClip(a.samples + b.samples, SR), key).samples
        rhs = embed_single_echo(a, key).samples + embed_single_echo(b, key).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_mean_cepstral_signature_over_trials(self):
        # mean of c[delta] over 50 long-carrier trials within alpha/2 +- 0.03
        values = []
        for seed in range(50):
            clip = noise_clip(seed, seconds=2**18 / SR, scale=1.0)
            clip = AudioClip(clip.samples[: 2**18], SR)
            tagged = embed_single_echo(clip, EchoKey(50, 0.4))
            values.append(real_cepstrum(tagged)[50])
        assert 0.2 - 0.03 <= np.mean(values) <= 0.2 + 0.03


class TestEmbedSpread:
    def test_impulse_response_is_kernel(self):
        x = np.zeros(3000)
        x[0] = 1.0
        key = SpreadKey(generate_pattern(1024, 3))
        out = embed_spread(AudioClip(x, SR), key)
        kernel = build_echo_kernel(key)
        assert len(out) == 3000
        assert np.allclose(out.samples[: len(kernel)], kernel, atol=1e-9)

    def test_alpha_zero_identity(self):
        clip = noise_clip(4, seconds=0.1)
        key = SpreadKey(generate_pattern(256, 4), alpha=0.0, delta=10)
        out = embed_spread(clip, key)
        assert np.max(np.abs(out.samples - clip.samples)) <= 1e-12

    def test_kernel_longer_than_clip(self):
        key = SpreadKey(generate_pattern(1024, 5))
        with pytest.raises(ValueError):
            embed_spread(AudioClip(np.zeros(1024 + 75), SR), key)

    def test_round_trip_default_key(self):
        clip = noise_clip(30, seconds=30.0, scale=1.0)
        key = SpreadKey(generate_pattern(1024, 30))
        report = detect_spread(embed_spread(clip, key), key)
        assert report.argmax_lag == 75
        z = report.profile.z
        others = np.delete(z, 75 - report.profile.band[0])
        assert report.z_at_key > np.max(others)

    def test_perturbation_rms_bound(self):
        # |x_hat - x| RMS <= alpha * sqrt(L) * RMS(x)
        clip = noise_clip(31, seconds=2.0)
        key = SpreadKey(generate_pattern(1024, 31))
        out = embed_spread(clip, key)
        perturbation = out.samples - clip.samples
        rms = lambda v: np.sqrt(np.mean(v**2))
        assert rms(perturbation) <= key.alpha * np.sqrt(key.length) * rms(clip.samples)

    def test_spread_snr_measured_on_music(self, music_corpus):
        # imperceptibility proxy: measured and recorded, deliberately not a
        # hard threshold assertion
        key = SpreadKey(generate_pattern(1024, 32))
        rms = lambda v: np.sqrt(np.mean(v**2))
        snrs = []
        for _, clip in music_corpus[:3]:
            out = embed_spread(clip, key)
            snrs.append(20 * np.log10(rms(clip.samples) / rms(out.samples - clip.samples)))
        print(f"spread embedding SNR on music clips: {['%.1f dB' % s for s in snrs]}")
        assert all(np.isfinite(snrs))
