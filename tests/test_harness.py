import numpy as np
import pytest
import scipy.stats

from echotag import (
    AudioClip,
    ChannelSpec,
    EchoKey,
    SpreadKey,
    apply_channel,
    detect_single_echo,
    detect_spread,
    embed,
    embed_single_echo,
    generate_pattern,
    roc,
    run_bitflip_curve,
    run_duration_sweep,
    run_tagging_experiment,
)
from echotag.harness import echo_alpha_scale, key_label, median_z_by_duration
from helpers import SR, noise_clip


def mann_whitney_auroc(true_scores, false_scores):
    """Independent rank-statistic oracle: P(T > F) + 0.5 P(T = F)."""
    t = np.asarray(true_scores, dtype=float)
    f = np.asarray(false_scores, dtype=float)
    u = scipy.stats.mannwhitneyu(t, f, alternative="two-sided").statistic
    return u / (t.size * f.size)


class TestRoc:
    def test_perfect_separation(self):
        result = roc([1, 2, 3], [-3, -2, -1])
        assert result.auroc == 1.0
        assert result.points[0].tolist() == [0.0, 0.0]
        assert result.points[-1].tolist() == [1.0, 1.0]

    def test_identical_multisets_half(self):
        result = roc([0.5, 1.5, 2.5], [0.5, 1.5, 2.5])
        assert result.auroc == pytest.approx(0.5, abs=1e-12)

    def test_points_monotone(self):
        rng = np.random.default_rng(0)
        result = roc(rng.normal(1, 1, 200), rng.normal(0, 1, 300))
        diffs = np.diff(result.points, axis=0)
        assert np.all(diffs >= -1e-15)

    def test_binormal_closed_form(self):
        rng = np.random.default_rng(1)
        result = roc(rng.normal(1.0, 1.0, 10_000), rng.normal(0.0, 1.0, 10_000))
        expected = scipy.stats.norm.cdf(1 / np.sqrt(2))
        assert result.auroc == pytest.approx(expected, abs=0.01)

    def test_matches_rank_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            n, m = rng.integers(5, 60, size=2)
            # integer-valued scores force plenty of ties
            t = rng.integers(0, 8, size=n).astype(float)
            f = rng.integers(0, 8, size=m).astype(float)
            result = roc(t, f)
            assert result.auroc == pytest.approx(mann_whitney_auroc(t, f), abs=1e-9)

    def test_trapezoid_consistency(self):
        rng = np.random.default_rng(3)
        result = roc(rng.normal(0.4, 1, 500), rng.normal(0, 1, 400))
        area = np.trapezoid(result.points[:, 1], result.points[:, 0])
        assert result.auroc == pytest.approx(area, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roc([], [1.0])


class TestChannelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="reverb")

    def test_factor_bounds(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="resample_factor", factor=2.5)

    def test_dict_round_trip(self):
        spec = ChannelSpec(kind="composite", seed=5, stages=[
            {"kind": "attenuate_echo", "ratio": 0.5},
            {"kind": "additive_noise", "snr_db": 20.0, "seed": 1},
        ])
        rebuilt = ChannelSpec.from_dict(spec.to_dict())
        assert rebuilt.to_dict() == spec.to_dict()

    def test_alpha_scale_recurses(self):
        spec = ChannelSpec(kind="composite", stages=[
            {"kind": "attenuate_echo", "ratio": 0.5},
            {"kind": "composite", "stages": [{"kind": "attenuate_echo", "ratio": 0.4}]},
            {"kind": "additive_noise", "snr_db": 10.0},
        ])
        assert echo_alpha_scale(spec) == pytest.approx(0.2)


class TestApplyChannel:
    def test_identity_bit_exact(self):
        clip = noise_clip(0, seconds=0.1)
        out = apply_channel(clip, ChannelSpec())
        assert np.array_equal(out.samples, clip.samples)

    def test_attenuate_passthrough(self):
        clip = noise_clip(1, seconds=0.1)
        out = apply_channel(clip, ChannelSpec(kind="attenuate_echo", ratio=0.25))
        assert np.array_equal(out.samples, clip.samples)

    def test_additive_noise_exact_snr(self):
        # unit-RMS clip at 20 dB -> added component RMS 0.1 within 1%
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(SR)
        samples /= np.sqrt(np.mean(samples**2))
        clip = AudioClip(samples, SR)
        out = apply_channel(clip, ChannelSpec(kind="additive_noise", snr_db=20.0, seed=3))
        added_rms = np.sqrt(np.mean((out.samples - clip.samples) ** 2))
        assert added_rms == pytest.approx(0.1, rel=0.01)

    def test_additive_noise_seeded(self):
        clip = noise_clip(3, seconds=0.1)
        spec = ChannelSpec(kind="additive_noise", snr_db=20.0, seed=4)
        a = apply_channel(clip, spec, salt=7)
        b = apply_channel(clip, spec, salt=7)
        c = apply_channel(clip, spec, salt=8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_pitch_factor_scales_lag(self):
        clip = noise_clip(4, seconds=3.0, scale=1.0)
        tagged = embed_single_echo(clip, EchoKey(100, 0.4))
        shifted = apply_channel(tagged, ChannelSpec(kind="resample_factor", factor=1.25))
        assert shifted.sample_rate == SR
        assert len(shifted) == pytest.approx(len(tagged) / 1.25, rel=1e-3)
        report = detect_single_echo(shifted, band=(25, 170))
        assert report.argmax_lag == 80

    def test_random_resample_probability_extremes(self):
        clip = noise_clip(5, seconds=0.5)
        never = apply_channel(clip, ChannelSpec(kind="random_resample", probability=0.0, seed=1))
        assert np.array_equal(never.samples, clip.samples)
        always = apply_channel(clip, ChannelSpec(kind="random_resample", probability=1.0, seed=1))
        assert len(always) != len(clip)

    def test_mixture_adds_interferers_at_snr(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal(SR)
        samples /= np.sqrt(np.mean(samples**2))
        clip = AudioClip(samples, SR)
        out = apply_channel(clip, ChannelSpec(kind="mixture", interferers=2, snr_db=0.0, seed=7))
        added = out.samples - clip.samples
        assert np.sqrt(np.mean(added**2)) == pytest.approx(1.0, rel=0.05)

    def test_composite_identity_is_monoid_identity(self):
        clip = noise_clip(8, seconds=0.2)
        lone = ChannelSpec(kind="additive_noise", snr_db=15.0, seed=9)
        wrapped = ChannelSpec(kind="composite", stages=[ChannelSpec(), lone])
        # identity stage contributes nothing; the noise stage sees the same
        # (seed, salt-derived) stream in both arrangements
        direct = apply_channel(clip, lone, salt=3 * 1000003 + 1)
        composed = apply_channel(clip, wrapped, salt=3)
        assert np.array_equal(direct.samples, composed.samples)


class TestDurationSweep:
    def test_rows_and_medians(self):
        corpus = [(f"n{v}", noise_clip((40, v), seconds=12.0, scale=1.0)) for v in range(3)]
        rows = run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0, 10.0],
                                  segments_per_clip=2, seed=1)
        assert len(rows) == 3 * 2 * 2 * 2  # clips x durations x segments x conditions
        embedded = [r for r in rows if r.condition == "embedded"]
        assert all(r.argmax_lag == 75 for r in embedded)
        clean = [r for r in rows if r.condition == "clean"]
        assert -2.0 <= np.median([r.z_at_key for r in clean]) <= 2.0
        medians = median_z_by_duration(rows)
        assert medians[10.0] >= medians[5.0]

    def test_deterministic(self):
        corpus = [("a", noise_clip(50, seconds=6.0, scale=1.0))]
        kwargs = dict(durations=[5.0], segments_per_clip=2, seed=3)
        rows_a = run_duration_sweep(corpus, EchoKey(50, 0.4), **kwargs)
        rows_b = run_duration_sweep(corpus, EchoKey(50, 0.4), **kwargs)
        assert [(r.z_at_key, r.argmax_lag) for r in rows_a] == \
               [(r.z_at_key, r.argmax_lag) for r in rows_b]

    def test_attenuation_weakens_embedding(self):
        corpus = [("a", noise_clip(51, seconds=6.0, scale=1.0))]
        strong = run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0],
                                    segments_per_clip=3, seed=4)
        weak = run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0],
                                  segments_per_clip=3, seed=4,
                                  channel=ChannelSpec(kind="attenuate_echo", ratio=0.25))
        z_strong = np.median([r.z_at_key for r in strong if r.condition == "embedded"])
        z_weak = np.median([r.z_at_key for r in weak if r.condition == "embedded"])
        assert z_weak < z_strong

    def test_segment_too_long_rejected(self):
        corpus = [("a", noise_clip(52, seconds=2.0))]
        with pytest.raises(ValueError, match="shorter"):
            run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0],
                               segments_per_clip=1, seed=0)


@pytest.fixture(scope="module")
def curve():
    corpus = [(f"n{v}", noise_clip((60, v), seconds=12.0, scale=1.0)) for v in range(6)]
    key = SpreadKey(generate_pattern(1024, 61))
    return run_bitflip_curve(corpus, key, flips=[0, 256, 512, 1024], duration_seconds=10.0,
                             segments_per_clip=1, seed=5)


class TestBitflipCurve:
    def test_zero_flips_is_chance(self, curve):
        flips, result = curve.flip_results[0]
        assert flips == 0
        assert result.auroc == pytest.approx(0.5, abs=1e-12)

    def test_auroc_rises_with_flips(self, curve):
        aurocs = [r.auroc for _, r in curve.flip_results]
        assert aurocs[0] <= aurocs[1] <= aurocs[2]
        assert aurocs[3] >= aurocs[2]  # full complement at least matches 512 flips
        assert aurocs[2] > 0.9

    def test_clean_comparison_separates(self, curve):
        assert curve.clean_roc.auroc >= 0.95

    def test_flips_beyond_length_rejected(self):
        key = SpreadKey(generate_pattern(64, 0), delta=8)
        with pytest.raises(ValueError):
            run_bitflip_curve([("a", noise_clip(0, seconds=1.0))], key, flips=[65])

    def test_true_score_is_detect_spread_z(self):
        # a clip exactly as long as the segment, so the segment is the clip
        key = SpreadKey(generate_pattern(1024, 91))
        clip = noise_clip(72, seconds=2.0, scale=1.0)
        curve = run_bitflip_curve([("c", clip)], key, flips=[0], duration_seconds=2.0)
        assert curve.true_scores[0] == detect_spread(embed(clip, key), key).z_at_key


class TestAttenuationTrend:
    def test_auroc_non_increasing_as_echo_weakens(self):
        # weaker reproduced echoes separate less well from a clean corpus
        from echotag import detect_spread, embed_spread, generate_pattern
        from echotag.embed import scaled_key

        key = SpreadKey(generate_pattern(1024, 85))
        clips = [noise_clip((80, v), seconds=10.0, scale=1.0) for v in range(12)]
        clean_scores = [detect_spread(c, key).z_at_key for c in clips]
        aurocs = []
        for ratio in (1.0, 0.5, 0.25, 0.1):
            weakened = scaled_key(key, ratio)
            true_scores = [detect_spread(embed_spread(c, weakened), key).z_at_key
                           for c in clips]
            aurocs.append(roc(true_scores, clean_scores).auroc)
        assert all(a >= b - 1e-12 for a, b in zip(aurocs, aurocs[1:])), aurocs
        assert aurocs[0] > aurocs[-1] or aurocs[0] == 1.0


class TestTaggingExperiment:
    def test_two_groups_separate(self):
        clips = {f"m{v}": noise_clip((70, v), seconds=8.0, scale=1.0) for v in range(3)}
        clips.update({f"f{v}": noise_clip((71, v), seconds=8.0, scale=1.0) for v in range(3)})
        manifest = {cid: EchoKey(50, 0.4) for cid in clips if cid.startswith("m")}
        manifest.update({cid: EchoKey(75, 0.4) for cid in clips if cid.startswith("f")})
        rows = run_tagging_experiment(clips, manifest, holdout=list(clips), seed=2)
        assert len(rows) == 6 * 2  # every holdout clip scored at both lags
        by_clip = {}
        for row in rows:
            by_clip.setdefault(row.clip_id, {})[row.tested_delta] = row.z
        correct = sum(
            1 for cid, scores in by_clip.items()
            if scores[manifest[cid].delta] > scores[75 if manifest[cid].delta == 50 else 50]
        )
        assert correct >= 0.9 * len(by_clip)

    def test_single_group_reduces_to_sweep_semantics(self):
        clips = {f"c{v}": noise_clip((72, v), seconds=8.0, scale=1.0) for v in range(2)}
        manifest = {cid: EchoKey(75, 0.4) for cid in clips}
        rows = run_tagging_experiment(clips, manifest, holdout=list(clips), seed=3)
        assert len(rows) == 2  # one candidate lag only
        assert all(row.tested_delta == 75 and row.own_delta == 75 for row in rows)
        assert all(row.z > 5.0 and row.argmax_lag == 75 for row in rows)

    def test_empty_holdout(self):
        assert run_tagging_experiment({}, {}, holdout=[]) == []

    def test_unknown_holdout_rejected(self):
        with pytest.raises(ValueError):
            run_tagging_experiment({}, {}, holdout=["ghost"])


class TestKeyLabel:
    def test_labels(self):
        assert key_label(EchoKey(75, 0.4)) == "single-d75-a0.4"
        assert key_label(SpreadKey(generate_pattern(1024, 0))) == "spread-d75-L1024-a0.01"
