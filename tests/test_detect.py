import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echotag import (
    AudioClip,
    ChannelSpec,
    EchoKey,
    SpreadKey,
    detect_single_echo,
    detect_spread,
    embed,
    embed_single_echo,
    enhance_correlation,
    embed_spread,
    flip_bits,
    generate_pattern,
    real_cepstrum,
    zscore_profile,
)
from echotag.detect import (
    RAHMONIC_CANCEL_Z,
    SPREAD_BAND_START,
    SPREAD_EXCLUSION_HALFWIDTH,
    scoring_length,
    single_echo_profile,
    spread_profile,
)
from echotag.harness import apply_channel
from helpers import SR, exclusion_zscore, noise_clip


def plain_profile(clip, band=(25, 125)):
    """detect_single_echo's plain profile: the z-scores of the cepstrum at the band's lags."""
    a, b = band
    return replace(zscore_profile(real_cepstrum(clip, lags=range(a, b + 1)), (0, b - a)), band=band)


def two_pass_oracle(values, i, a, b, halfwidth=0):
    """Independent pure-python two-pass mean/std exclusion z-score."""
    kept = [float(values[j]) for j in range(a, b + 1) if abs(j - i) > halfwidth]
    mu = sum(kept) / len(kept)
    var = sum((x - mu) ** 2 for x in kept) / len(kept)
    return (float(values[i]) - mu) / math.sqrt(var)


class TestExclusionZscore:
    def test_linear_ramp_symmetric_about_center(self):
        values = np.arange(200, dtype=float)
        z, degenerate = exclusion_zscore(values, 75, 25, 125)
        assert not degenerate
        assert abs(z) <= 1e-12  # mean of the ramp over [25,125]\{75} is 75

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(300)
        z0, _ = exclusion_zscore(values, 88, 25, 125)
        z_shift, _ = exclusion_zscore(values + 12.5, 88, 25, 125)
        z_scale, _ = exclusion_zscore(values * 7.0, 88, 25, 125)
        assert z_shift == pytest.approx(z0, abs=1e-9)
        assert z_scale == pytest.approx(z0, abs=1e-9)

    def test_matches_two_pass_oracle_over_band(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(4096)
        for i in range(25, 126):
            z, _ = exclusion_zscore(values, i, 25, 125)
            assert z == pytest.approx(two_pass_oracle(values, i, 25, 125), abs=1e-10)
        # and over a whole-sequence band with a halfwidth
        for i in (0, 3, 2047, 4092, 4095):
            z, _ = exclusion_zscore(values, i, 0, 4095, halfwidth=3)
            assert z == pytest.approx(two_pass_oracle(values, i, 0, 4095, 3), abs=1e-10)

    def test_degenerate_flagged_not_nan(self):
        z, degenerate = exclusion_zscore(np.full(50, 2.0), 10, 0, 49)
        assert degenerate
        assert z == 0.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            exclusion_zscore(np.zeros(10), 11, 0, 9)
        with pytest.raises(ValueError):
            exclusion_zscore(np.zeros(10), 5, 6, 9)
        with pytest.raises(ValueError):
            exclusion_zscore(np.zeros(3), 1, 0, 2, halfwidth=2)  # nothing left

    # offset: a band mean up to 1e8 times its spread, which the cumulative sums
    # must not cancel away
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        halfwidth=st.integers(0, 5),
        i_offset=st.integers(0, 100),
        offset=st.sampled_from([0.0, 1e4, -1e6, 1e8]),
    )
    @example(seed=0, halfwidth=3, i_offset=50, offset=1e8)
    def test_profile_agrees_with_scalar(self, seed, halfwidth, i_offset, offset):
        rng = np.random.default_rng(seed)
        values = offset + rng.standard_normal(200)
        a, b = 25, 125
        i = a + i_offset
        profile = zscore_profile(values, (a, b), halfwidth=halfwidth)
        scalar, _ = exclusion_zscore(values, i, a, b, halfwidth=halfwidth)
        assert profile.z_at(i) == pytest.approx(scalar, rel=1e-8, abs=1e-10 if offset == 0 else 1e-6)


class TestZscoreProfile:
    def test_band_and_argmax(self):
        values = np.zeros(300)
        values[80] = 5.0
        profile = zscore_profile(values, (25, 125))
        assert profile.band == (25, 125)
        assert profile.argmax_lag == 80
        assert profile.z_at(80) == np.max(profile.z)

    def test_z_at_outside_band(self):
        profile = zscore_profile(np.random.default_rng(0).standard_normal(300), (25, 125))
        with pytest.raises(ValueError):
            profile.z_at(126)

    def test_degenerate_profile(self):
        profile = zscore_profile(np.ones(300), (25, 125))
        assert profile.degenerate
        assert np.all(np.isfinite(profile.z))


class TestDetectSingleEcho:
    def test_round_trip_20_seeds_each_delta(self):
        for delta in (50, 75, 76, 100):
            hits = 0
            for seed in range(20):
                clip = noise_clip((delta, seed), seconds=10.0, scale=1.0)
                tagged = embed_single_echo(clip, EchoKey(delta, 0.4))
                report = detect_single_echo(tagged, key_lag=delta)
                hits += report.argmax_lag == delta
                assert report.z_at_key == report.profile.z_at(delta)
            assert hits == 20

    def test_clean_null_band(self):
        over = 0
        for seed in range(100):
            clip = noise_clip((9, seed), seconds=10.0, scale=1.0)
            report = detect_single_echo(clip)
            over += np.max(np.abs(report.profile.z)) >= 5.0
        assert over <= 5

    def test_cross_echo_never_detects_wrong_lag(self):
        # the off-diagonal guarantee: a delta=50 embedding never reads as a
        # 100 echo - argmax stays at 50 and z at 100 stays far below the peak
        for seed in range(25):
            clip = noise_clip((31, seed), seconds=10.0, scale=1.0)
            tagged = embed_single_echo(clip, EchoKey(50, 0.4))
            report = detect_single_echo(tagged, key_lag=100)
            assert report.argmax_lag == 50
            assert report.z_at_key < 5.0
            assert report.profile.z_at(50) > 20.0

    def test_cross_echo_null_is_compressed_not_identical(self):
        # two real effects keep cross-echo z-scores of the raw cepstral
        # profile from matching a clean null: the true echo's peak inflates
        # the band sigma at every other lag (compressing z ~10x), and for the
        # pair (50, 100) the echo kernel's second rahmonic -alpha^2/4 shifts
        # the mean at 2*delta. The detector cancels both.
        z_raw, z_cross, z_clean = [], [], []
        for seed in range(30):
            clip = noise_clip((32, seed), seconds=10.0, scale=1.0)
            tagged = embed_single_echo(clip, EchoKey(50, 0.4))
            z_raw.append(zscore_profile(real_cepstrum(tagged), (25, 125)).z_at(100))
            z_cross.append(detect_single_echo(tagged, key_lag=100).z_at_key)
            z_clean.append(detect_single_echo(clip, key_lag=100).z_at_key)
        assert np.mean(z_raw) < -1.0  # rahmonic displacement, scaled by inflated sigma
        assert np.std(z_raw) < 0.5 * np.std(z_clean)  # compression
        assert np.std(z_clean) > 0.5  # clean null really is ~unit spread
        assert np.mean(z_cross) > -1.0  # detector: no rahmonic displacement
        assert np.std(z_cross) > 0.5 * np.std(z_clean)  # and no compression

    def test_rahmonic_cancellation_keeps_peak_of_pitch_shifted_echo(self):
        # a fractional echo lag leaks into d+-1; rescoring must not lift a
        # neighbour above the detected peak, and the peak window keeps its z
        for index, factor in enumerate(np.linspace(0.95, 1.05, 21)):
            clip = noise_clip((33, index), seconds=5.0, scale=1.0)
            tagged = embed_single_echo(clip, EchoKey(75, 0.4))
            shift = ChannelSpec(kind="random_resample", probability=1, low=float(factor), high=float(factor))
            [shifted] = apply_channel([tagged], shift, salt=index)
            plain = plain_profile(shifted)
            report = detect_single_echo(shifted)
            assert np.max(plain.z) >= RAHMONIC_CANCEL_Z  # cancellation ran
            d = plain.argmax_lag
            assert report.argmax_lag == d == report.profile.argmax_lag
            for lag in (d - 1, d, d + 1):
                assert report.profile.z_at(lag) == plain.z_at(lag)

    def test_clean_profile_below_threshold_is_plain(self):
        for seed in range(10):
            clip = noise_clip((36, seed), seconds=5.0, scale=1.0)
            plain = plain_profile(clip)
            assert np.max(plain.z) < RAHMONIC_CANCEL_Z
            np.testing.assert_array_equal(detect_single_echo(clip).profile.z, plain.z)

    def test_second_echo_rescored_above_peak(self):
        clip = noise_clip(34, seconds=10.0, scale=1.0)
        tagged = embed_single_echo(embed_single_echo(clip, EchoKey(50, 0.4)), EchoKey(90, 0.3))
        plain = plain_profile(tagged)
        report = detect_single_echo(tagged)
        assert report.argmax_lag == plain.argmax_lag == 50
        assert report.profile.z_at(50) == plain.z_at(50)
        assert report.profile.argmax_lag == 90  # rescored above the peak's plain z

    def test_rahmonic_cancellation_band_edges(self):
        tagged = embed_single_echo(noise_clip(35, seconds=5.0, scale=1.0), EchoKey(75, 0.4))
        # quefrency 0 is the log level, not an echo lag
        with pytest.raises(ValueError, match="lag 1"):
            detect_single_echo(tagged, band=(0, 125))
        # too few lags outside the peak window to rescore: plain profile
        plain = plain_profile(tagged, (74, 76))
        np.testing.assert_array_equal(detect_single_echo(tagged, band=(74, 76)).profile.z, plain.z)

    def test_clip_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            detect_single_echo(AudioClip(np.zeros(250), SR))

    def test_profile_needs_one_value_per_band_lag(self):
        with pytest.raises(ValueError, match=r"needs 101 cepstrum values, got shape \(126,\)"):
            single_echo_profile(np.zeros(126), (25, 125))

    def test_loudness_invariance_of_profile(self):
        clip = noise_clip(40, seconds=5.0, scale=1.0)
        tagged = embed_single_echo(clip, EchoKey(75, 0.4))
        quiet = AudioClip(tagged.samples * 0.05, SR)
        z_loud = detect_single_echo(tagged).profile.z
        z_quiet = detect_single_echo(quiet).profile.z
        assert np.max(np.abs(z_loud - z_quiet)) <= 1e-6


class TestDetectSpread:
    def test_round_trip_20_seeds(self):
        key = SpreadKey(generate_pattern(1024, 99))
        hits = 0
        for seed in range(20):
            clip = noise_clip((50, seed), seconds=30.0, scale=1.0)
            report = detect_spread(embed_spread(clip, key), key)
            hits += report.argmax_lag == 75
            # peak beats everything outside the +-3 exclusion zone
            lags = np.arange(report.profile.band[0], report.profile.band[1] + 1)
            outside = np.abs(lags - 75) > 3
            assert report.z_at_key > np.max(report.profile.z[outside])
        assert hits == 20

    def test_band_bounds(self):
        key = SpreadKey(generate_pattern(1024, 98))
        clip = noise_clip(61, seconds=30.0, scale=1.0)
        report = detect_spread(embed_spread(clip, key), key)
        assert report.profile.band == (3, 1024 + 75)
        assert report.profile.exclusion_halfwidth == 3

    def test_clean_null(self):
        key = SpreadKey(generate_pattern(1024, 97))
        over = 0
        for seed in range(40):
            clip = noise_clip((62, seed), seconds=10.0, scale=1.0)
            report = detect_spread(clip, key)
            over += abs(report.z_at_key) >= 5.0
        assert over <= 2

    def test_complement_template_negates_score(self):
        key = SpreadKey(generate_pattern(1024, 96))
        clip = noise_clip(63, seconds=30.0, scale=1.0)
        tagged = embed_spread(clip, key)
        z_true = detect_spread(tagged, key).z_at_key
        complement = SpreadKey(flip_bits(key.pattern, 1024, seed=0), key.alpha, key.delta)
        z_flip = detect_spread(tagged, complement).z_at_key
        assert z_flip == pytest.approx(-z_true, abs=0.15 * abs(z_true))

    def test_spread_profile_is_detect_spread_profile(self):
        key = SpreadKey(generate_pattern(1024, 90))
        tagged = embed_spread(noise_clip(66, seconds=2.0, scale=1.0), key)
        profile = spread_profile(real_cepstrum(tagged), key.template, key.delta)
        np.testing.assert_array_equal(profile.z, detect_spread(tagged, key).profile.z)

    # N - L + 1 past L + delta + 2 (only the scored lags correlated), equal to it, and
    # below it (band clamped): every lag of the full correlation is computed
    @pytest.mark.parametrize("enhanced", [False, True])
    @pytest.mark.parametrize("n", [10 * SR, 2 * 1024 + 75 + 1, 1500])
    def test_spread_profile_matches_full_correlation(self, n, enhanced):
        key = SpreadKey(generate_pattern(1024, 91))
        tagged = embed_spread(noise_clip(67, seconds=10.0, scale=1.0), key)
        c = real_cepstrum(AudioClip(tagged.samples[:n], SR))
        profile = spread_profile(c, key.template, key.delta, enhanced)
        # the scorer's reference: the same band scored on the full "valid" correlation
        cstar = scipy.signal.correlate(c, key.template, mode="valid")
        if enhanced:
            cstar = enhance_correlation(cstar)
        band = (SPREAD_BAND_START, min(1024 + 75, cstar.size - 1))
        reference = zscore_profile(cstar, band, halfwidth=SPREAD_EXCLUSION_HALFWIDTH)
        assert profile.band == band
        assert profile.degenerate == reference.degenerate
        if cstar.size <= 1024 + 75 + 2:
            np.testing.assert_array_equal(profile.z, reference.z)
        else:
            assert np.max(np.abs(profile.z - reference.z)) <= 1e-12 * np.max(np.abs(reference.z))

    def test_enhanced_variant_still_detects(self):
        key = SpreadKey(generate_pattern(1024, 95))
        clip = noise_clip(64, seconds=30.0, scale=1.0)
        report = detect_spread(embed_spread(clip, key), key, enhanced=True)
        assert report.profile.source == "spread_correlation_enhanced"
        assert report.argmax_lag == 75

    def test_clip_too_short(self):
        key = SpreadKey(generate_pattern(1024, 94))
        with pytest.raises(ValueError, match="too short"):
            detect_spread(AudioClip(np.zeros(1100), SR), key)

    def test_band_clamped_on_shortish_clip(self):
        # between L+d+1 and 2L+d the band shrinks but detection still runs
        key = SpreadKey(generate_pattern(1024, 93))
        clip = noise_clip(65, seconds=1500 / SR, scale=1.0)
        report = detect_spread(clip, key)
        assert report.profile.band[1] == len(clip) - 1024

    def test_bitflip_monotone_median_z(self):
        key = SpreadKey(generate_pattern(1024, 92))
        medians = []
        for flips in (0, 128, 256, 384, 512):
            scores = []
            for seed in range(20):
                clip = noise_clip((70, seed), seconds=10.0, scale=1.0)
                tagged = embed_spread(clip, key)
                probe = SpreadKey(flip_bits(key.pattern, flips, seed=(seed, flips)),
                                  key.alpha, key.delta)
                scores.append(detect_spread(tagged, probe).z_at_key)
            medians.append(np.median(scores))
        assert all(a >= b for a, b in zip(medians, medians[1:]))


class TestReportSerialization:
    def test_dict_and_csv_row(self):
        clip = noise_clip(80, seconds=5.0, scale=1.0)
        tagged = embed_single_echo(clip, EchoKey(75, 0.4))
        report = detect_single_echo(tagged, key_lag=75)
        d = report.to_dict()
        assert d["argmax_lag"] == 75
        assert len(d["z"]) == 101
        row = report.to_dict(include_profile=False)
        assert "z" not in row
        assert {"argmax_lag", "z_at_key", "degenerate"} <= set(row)
        assert not {"clip_id", "key_id", "duration_seconds"} & set(row)  # the caller's to add


def embeds_and_scores(key, band, n) -> bool:
    """Whether `embed` and then the key's detector succeed on an n-sample noise clip."""
    try:
        tagged = embed(AudioClip(np.random.default_rng(n).standard_normal(n), SR), key)
        if isinstance(key, SpreadKey):
            detect_spread(tagged, key)
        else:
            detect_single_echo(tagged, band=band, key_lag=key.delta)
    except ValueError:
        return False
    return True


class TestScoringLength:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), spread=st.booleans(), length=st.integers(2, 64),
           delta=st.integers(1, 40), a=st.integers(1, 129))
    def test_says_yes_exactly_when_embed_and_detection_succeed(self, data, spread, length,
                                                               delta, a):
        band = (a, data.draw(st.integers(a + 1, 130), label="b"))
        key = SpreadKey(generate_pattern(length, delta), delta=delta) if spread else EchoKey(delta)
        try:
            need = scoring_length(key, band)
        except ValueError:
            need = None  # no length can do
        # every n within 3 of each length at which some detector condition turns
        bounds = (2 * band[1] + 1, length + delta + 2, length + 11, 2 * length + delta + 40)
        for n in sorted({x + k for x in bounds for k in range(-3, 4) if x + k >= 1}):
            assert embeds_and_scores(key, band, n) == (need is not None and n >= need), n

    def test_spread_bound(self):
        # at 26 samples the band ends at lag 10, too few lags outside the +-3 window to score
        key = SpreadKey(generate_pattern(16, 1), delta=1)
        assert scoring_length(key) == 27
        with pytest.raises(ValueError, match="need at least 27 samples, got 26"):
            detect_spread(AudioClip(np.ones(26), SR), key)

    @pytest.mark.parametrize("key, band, problem", [
        (SpreadKey(generate_pattern(8, 0), delta=2), (25, 125), r"\[3, 10\] must reach lag 11"),
        (EchoKey(150), (25, 125), "echo lag 150 outside the scan band"),
        (EchoKey(25), (25, 26), "must hold at least 3 lags"),
        (EchoKey(25), (0, 125), "lag 1 or later"),
    ])
    def test_no_length_can_do(self, key, band, problem):
        with pytest.raises(ValueError, match=problem):
            scoring_length(key, band)
