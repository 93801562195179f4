import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echotag import (
    AudioClip,
    PayloadConfig,
    bits_per_second,
    capacity_bits,
    decode_payload,
    encode_payload,
)
from echotag.embed import EchoKey, embed_single_echo
from echotag.payload import MIX_BLOCK
from helpers import (
    SR,
    decode_payload_per_window,
    decode_payload_whole_clip,
    encode_payload_whole_clip,
    music_clip,
    noise_clip,
    traced_peak,
)


class TestPayloadConfig:
    def test_defaults(self):
        config = PayloadConfig()
        assert (config.delta0, config.delta1, config.alpha, config.window) == (50, 100, 0.4, 1024)

    def test_validation(self):
        with pytest.raises(ValueError):
            PayloadConfig(delta0=50, delta1=50)
        with pytest.raises(ValueError):
            PayloadConfig(delta0=0)
        with pytest.raises(ValueError):
            PayloadConfig(delta0=50, delta1=130)
        with pytest.raises(ValueError):
            PayloadConfig(window=300)  # < 4 * max lag


class TestCapacity:
    def test_rate_formula(self):
        assert bits_per_second(44100, PayloadConfig()) == pytest.approx(44100 / 1024)
        assert int(bits_per_second(44100, PayloadConfig())) == 43

    def test_capacity_floor(self):
        assert capacity_bits(44100, PayloadConfig()) == 43
        assert capacity_bits(1023, PayloadConfig()) == 0


class TestEncode:
    def test_all_zero_payload_equals_x0(self):
        clip = noise_clip(1, seconds=0.5)
        config = PayloadConfig()
        out = encode_payload(clip, np.zeros(10, dtype=int), config)
        x0 = embed_single_echo(clip, EchoKey(config.delta0, config.alpha))
        assert np.max(np.abs(out.samples - x0.samples)) <= 1e-12

    def test_all_one_payload_equals_x1(self):
        clip = noise_clip(2, seconds=0.5)
        config = PayloadConfig()
        out = encode_payload(clip, np.ones(10, dtype=int), config)
        x1 = embed_single_echo(clip, EchoKey(config.delta1, config.alpha))
        assert np.max(np.abs(out.samples - x1.samples)) <= 1e-12

    def test_alpha_zero_identity(self):
        clip = noise_clip(3, seconds=0.25)
        config = PayloadConfig(alpha=0.0)
        out = encode_payload(clip, np.array([0, 1, 0, 1]), config)
        assert np.array_equal(out.samples, clip.samples)

    def test_capacity_enforced(self):
        clip = noise_clip(4, seconds=0.1)  # 4410 samples -> 4 windows
        with pytest.raises(ValueError):
            encode_payload(clip, np.zeros(5, dtype=int), PayloadConfig())

    def test_envelope_hits_bits_at_window_centers(self):
        clip = noise_clip(5, seconds=0.5)
        config = PayloadConfig()
        bits = np.array([0, 1, 1, 0, 1])
        out = encode_payload(clip, bits, config)
        x0 = embed_single_echo(clip, EchoKey(config.delta0, config.alpha)).samples
        x1 = embed_single_echo(clip, EchoKey(config.delta1, config.alpha)).samples
        for k, bit in enumerate(bits):
            center = int((k + 0.5) * config.window)
            expected = x1[center] if bit else x0[center]
            assert out.samples[center] == pytest.approx(expected, abs=1e-12)


class TestEncodeMatchesWholeClipMix:
    """The blockwise mix against the whole-clip formula it replaced: tolerance 0."""

    @settings(max_examples=40, deadline=None)
    @given(blocks=st.integers(min_value=0, max_value=3),
           offset=st.integers(min_value=-2, max_value=2),
           share=st.floats(min_value=0.0, max_value=1.0),
           config=st.sampled_from([PayloadConfig(), PayloadConfig(delta0=100, delta1=50, alpha=0.2),
                                   PayloadConfig(delta0=30, delta1=75, alpha=0.3, window=600),
                                   PayloadConfig(alpha=0.0)]))
    @example(blocks=1, offset=0, share=1.0, config=PayloadConfig())
    @example(blocks=2, offset=1, share=0.0, config=PayloadConfig())
    @example(blocks=2, offset=-1, share=0.5, config=PayloadConfig(alpha=0.0))
    def test_bit_for_bit(self, blocks, offset, share, config):
        """Lengths on both sides of block multiples, 0 to capacity bits."""
        n = max(blocks * MIX_BLOCK + offset, 2 * config.window + 1)
        n_bits = round(share * capacity_bits(n, config))
        rng = np.random.default_rng([n, n_bits])
        clip = AudioClip(0.3 * rng.standard_normal(n), SR)
        bits = rng.integers(0, 2, size=n_bits)
        out = encode_payload(clip, bits, config).samples
        assert out.tobytes() == encode_payload_whole_clip(clip, bits, config).tobytes()

    def test_60s_clip_peaks_at_one_clip_size(self):
        config = PayloadConfig()
        clip = noise_clip(94, seconds=60.0)
        bits = np.random.default_rng(94).integers(0, 2, size=capacity_bits(len(clip), config))
        peak = traced_peak(encode_payload, clip, bits, config)
        # the output clip, and one block's two echoed slices and mix temporaries
        assert peak <= clip.samples.nbytes + 4 * 2**20


class TestDecode:
    def test_pure_x0_decodes_zeros(self):
        clip = noise_clip(6, seconds=1.0, scale=1.0)
        config = PayloadConfig()
        x0 = embed_single_echo(clip, EchoKey(config.delta0, config.alpha))
        assert np.all(decode_payload(x0, config, 40) == 0)

    def test_pure_x1_decodes_ones(self):
        clip = noise_clip(7, seconds=1.0, scale=1.0)
        config = PayloadConfig()
        x1 = embed_single_echo(clip, EchoKey(config.delta1, config.alpha))
        assert np.all(decode_payload(x1, config, 40) == 1)

    def test_too_many_bits_requested(self):
        clip = noise_clip(8, seconds=0.1)
        with pytest.raises(ValueError):
            decode_payload(clip, PayloadConfig(), 5)

    def test_round_trip_40_bits(self):
        config = PayloadConfig()
        worst = 0
        for seed in range(5):
            rng = np.random.default_rng((90, seed))
            clip = noise_clip((91, seed), seconds=1.0, scale=1.0)
            bits = rng.integers(0, 2, size=40)
            decoded = decode_payload(encode_payload(clip, bits, config), config, 40)
            worst = max(worst, int(np.sum(decoded != bits)))
        assert worst <= 2  # >= 38/40 per clip

    def test_alternating_payload_ber(self):
        config = PayloadConfig()
        errors = total = 0
        for seed in range(10):
            clip = noise_clip((92, seed), seconds=1.0, scale=1.0)
            bits = np.tile([0, 1], 22)[:43]
            decoded = decode_payload(encode_payload(clip, bits, config), config, 43)
            errors += int(np.sum(decoded != bits))
            total += 43
        assert errors / total <= 0.10

    def test_swapping_lags_inverts_bits(self):
        config = PayloadConfig()
        swapped = PayloadConfig(delta0=config.delta1, delta1=config.delta0,
                                alpha=config.alpha, window=config.window)
        clip = noise_clip(93, seconds=1.0, scale=1.0)
        rng = np.random.default_rng(93)
        bits = rng.integers(0, 2, size=43)
        encoded = encode_payload(clip, bits, config)
        assert np.array_equal(decode_payload(encoded, swapped, 43),
                              1 - decode_payload(encoded, config, 43))


class TestDecodeMatchesPerWindowLoop:
    """The decode against a loop of 1-D cepstra, one per window: exact bits."""

    CAPACITY = 24

    @pytest.fixture(params=[
        PayloadConfig(),
        PayloadConfig(delta0=100, delta1=50),
        PayloadConfig(delta0=30, delta1=75, alpha=0.3, window=512),
        PayloadConfig(delta0=125, delta1=7, alpha=0.2, window=600),
    ], ids=["default", "swapped-lags", "window-512", "window-600"])
    def encoded(self, request):
        """A full-capacity payload clip with a silent window and a trailing partial window."""
        config = request.param
        rng = np.random.default_rng(config.window + config.delta0)
        partial = config.window // 2 + 3
        clip = AudioClip(rng.standard_normal(self.CAPACITY * config.window + partial), SR)
        samples = encode_payload(clip, rng.integers(0, 2, size=self.CAPACITY), config).samples
        samples[3 * config.window : 4 * config.window] = 0.0  # equal cepstra at both lags
        return AudioClip(samples, SR), config

    @pytest.mark.parametrize("n_bits", [0, 1, CAPACITY // 2, CAPACITY])
    def test_bits_dtype_and_shape_equal_the_loop(self, encoded, n_bits):
        clip, config = encoded
        assert capacity_bits(len(clip), config) == self.CAPACITY
        bits = decode_payload(clip, config, n_bits)
        expected = decode_payload_per_window(clip, config, n_bits)
        assert bits.dtype == expected.dtype == np.uint8
        assert bits.shape == expected.shape == (n_bits,)
        assert np.array_equal(bits, expected)

    def test_silent_window_ties_to_one(self, encoded):
        clip, config = encoded
        assert decode_payload(clip, config, 4)[3] == 1

    def test_trailing_partial_window_ignored(self, encoded):
        clip, config = encoded
        whole = self.CAPACITY * config.window
        noisier = clip.samples.copy()
        noisier[whole:] = np.random.default_rng(1).standard_normal(len(clip) - whole)
        bits = decode_payload(clip, config, self.CAPACITY)
        assert np.array_equal(decode_payload(AudioClip(noisier, SR), config, self.CAPACITY), bits)
        assert np.array_equal(decode_payload(AudioClip(clip.samples[:whole], SR), config,
                                             self.CAPACITY), bits)
        with pytest.raises(ValueError, match="holds at most 24 bits"):
            decode_payload(clip, config, self.CAPACITY + 1)

    def test_negative_bit_count_rejected(self, encoded):
        clip, config = encoded
        with pytest.raises(ValueError, match="n_bits must be >= 0"):
            decode_payload(clip, config, -1)


class TestDecodeMatchesWholeClip:
    """The block decode against one 2-D cepstrum over every window: exact bits."""

    @pytest.fixture(params=[
        PayloadConfig(),
        PayloadConfig(delta0=100, delta1=50),
        PayloadConfig(delta0=30, delta1=75, alpha=0.3, window=512),
        PayloadConfig(delta0=125, delta1=7, alpha=0.2, window=600),  # 65,536 / 600 leaves 136
    ], ids=["default", "swapped-lags", "window-512", "window-600"])
    def encoded(self, request):
        """A payload clip of 2 blocks + 3 windows; silent windows (ties) in the first and second block."""
        config = request.param
        rows = max(1, MIX_BLOCK // config.window)
        capacity = 2 * rows + 3
        rng = np.random.default_rng([config.window, config.delta0, 21])
        clip = AudioClip(rng.standard_normal(capacity * config.window + config.window // 3), SR)
        samples = encode_payload(clip, rng.integers(0, 2, size=capacity), config).samples
        for tie in (3, rows + 5):
            samples[tie * config.window : (tie + 1) * config.window] = 0.0
        return AudioClip(samples, SR), config, rows

    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1), (2, 3)],
                             ids=["0", "1", "rows-1", "rows", "rows+1", "2rows+1", "capacity"])
    def test_bits_dtype_and_shape_equal_the_whole_clip_decode(self, encoded, blocks, extra):
        clip, config, rows = encoded
        n = blocks * rows + extra  # n_bits
        assert n <= capacity_bits(len(clip), config) == 2 * rows + 3
        bits = decode_payload(clip, config, n)
        expected = decode_payload_whole_clip(clip, config, n)
        assert bits.dtype == expected.dtype == np.uint8
        assert bits.shape == expected.shape == (n,)
        assert bits.tobytes() == expected.tobytes()

    def test_silent_window_in_a_later_block_ties_to_one(self, encoded):
        clip, config, rows = encoded
        assert decode_payload(clip, config, 2 * rows + 1)[[3, rows + 5]].tolist() == [1, 1]

    def test_round_trip_errors_equal_the_whole_clip_decode(self):
        """A music clip at capacity, as in perfbench's round trip: its bit errors decode equal too."""
        config = PayloadConfig()
        clip = music_clip(95, seconds=20.0)
        n = capacity_bits(len(clip), config)
        bits = np.random.default_rng(95).integers(0, 2, size=n)
        encoded = encode_payload(clip, bits, config)
        decoded = decode_payload(encoded, config, n)
        assert decoded.tobytes() == decode_payload_whole_clip(encoded, config, n).tobytes()
        assert np.count_nonzero(decoded != bits) > 0

    def test_60s_decode_peaks_under_4_mib(self):
        config = PayloadConfig()
        clip = noise_clip(96, seconds=60.0)
        assert traced_peak(decode_payload, clip, config, capacity_bits(len(clip), config)) <= 4 * 2**20
