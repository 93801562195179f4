import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)
from echotag import audio, evalrun, harness
from echotag.harness import channel_length_bound, echo_alpha_scale, median_z_by_duration
from helpers import (
    SR,
    additive_noise_fresh,
    apply_channel_recursive,
    channel_length_bound_recursive,
    echo_alpha_scale_recursive,
    noise_clip,
)


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

    def test_mixture_is_not_a_kind(self):
        # additive_noise at the same snr_db is the same degradation
        with pytest.raises(ValueError, match="'kind' must be one of identity, attenuate_echo, "
                                             "additive_noise, random_resample, "
                                             "composite, got 'mixture'"):
            ChannelSpec.from_dict({"kind": "mixture", "snr_db": 10.0})

    def test_factor_bounds(self):
        with pytest.raises(ValueError):
            ChannelSpec(kind="random_resample", probability=1, low=2.5, high=2.5)

    def test_every_problem_listed(self):
        with pytest.raises(ValueError) as info:
            ChannelSpec.from_dict({"kind": "composite", "seed": -1, "stages": [
                {"kind": "random_resample", "low": 1.5, "high": 1.0},
                {"kind": "identity", "snr_db": 10.0},
                7,
                {"kind": "additive_noise", "snr_db": "x", "foo": 1},
                {"kind": "bogus", "seed": -1, "snr_db": "x"},
                {"kind": ["unhashable"], "ratio": 0.5},
            ]})
        message = str(info.value)
        assert "'seed' must be a non-negative integer, got -1" in message
        assert "stage 0: low 1.5 exceeds high 1.0" in message
        assert "stage 1: kind 'identity' does not read 'snr_db'" in message
        assert "stage 2: must be a JSON object, got 7" in message
        # an unread field is reported with the stage's other problems, not in place of them
        assert ("stage 3: kind 'additive_noise' does not read 'foo'; "
                "'snr_db' must be a number of dB from -100 to 100, got 'x'") in message
        # an unknown kind reads only kind and seed, and each of them is checked
        kinds = "'kind' must be one of identity, attenuate_echo, additive_noise, random_resample, composite"
        assert (f"stage 4: kind 'bogus' does not read 'snr_db'; {kinds}, got 'bogus'; "
                "'seed' must be a non-negative integer, got -1") in message
        assert f"stage 5: kind ['unhashable'] does not read 'ratio'; {kinds}, got ['unhashable']" in message

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


SEEDS = st.integers(0, 2**16)
PITCH_FACTORS = st.floats(0.5, 2.0)
# nested channels of every kind, the pitch shifts and attenuations among them with any factor
CHANNELS = st.recursive(
    st.builds(ChannelSpec, kind=st.sampled_from(["identity", "additive_noise"]), seed=SEEDS)
    | st.builds(ChannelSpec, kind=st.just("attenuate_echo"), ratio=st.floats(0, 1, exclude_min=True),
                seed=SEEDS)
    | st.builds(lambda p, bounds, seed: ChannelSpec(kind="random_resample", probability=p, low=min(bounds),
                                                    high=max(bounds), seed=seed),
                st.floats(0, 1), st.tuples(PITCH_FACTORS, PITCH_FACTORS), SEEDS),
    lambda inner: st.builds(ChannelSpec, kind=st.just("composite"), stages=st.lists(inner, max_size=3),
                            seed=SEEDS),
    max_leaves=5,
)


def _attenuations(spec) -> int:
    return 1 if spec.kind == "attenuate_echo" else sum(_attenuations(stage) for stage in spec.stages)


def _nested_attenuations(spec, depth: int = 0) -> bool:
    """Whether a composite inside another holds two or more attenuate_echo stages."""
    return spec.kind == "composite" and ((depth > 0 and _attenuations(spec) >= 2)
                                         or any(_nested_attenuations(s, depth + 1) for s in spec.stages))


class TestApplyChannel:
    def test_identity_bit_exact(self):
        clip = noise_clip(0, seconds=0.1)
        [out] = apply_channel([clip], ChannelSpec())
        assert np.array_equal(out.samples, clip.samples)

    def test_attenuate_passthrough(self):
        clip = noise_clip(1, seconds=0.1)
        [out] = apply_channel([clip], ChannelSpec(kind="attenuate_echo", ratio=0.25))
        assert np.array_equal(out.samples, clip.samples)

    def test_additive_noise_exact_snr(self):
        # unit-RMS clip at 20 dB -> added component RMS 0.1 within 1%
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(SR)
        samples /= np.sqrt(np.mean(samples**2))
        clip = AudioClip(samples, SR)
        [out] = apply_channel([clip], ChannelSpec(kind="additive_noise", snr_db=20.0, seed=3))
        added_rms = np.sqrt(np.mean((out.samples - clip.samples) ** 2))
        assert added_rms == pytest.approx(0.1, rel=0.01)

    def test_additive_noise_seeded(self):
        clip = noise_clip(3, seconds=0.1)
        spec = ChannelSpec(kind="additive_noise", snr_db=20.0, seed=4)
        [a] = apply_channel([clip], spec, salt=7)
        [b] = apply_channel([clip], spec, salt=7)
        [c] = apply_channel([clip], spec, salt=8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    # (seed, salt, n) from a small pool, visited in a drawn order so one repeats
    # and alternates with others (a, b, a): an earlier call's draw must never
    # stand in for another key's, whatever the clip
    @settings(max_examples=40, deadline=None)
    @given(pool=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 500)),
                         min_size=1, max_size=3),
           order=st.lists(st.integers(0, 2), min_size=1, max_size=8),
           snr_db=st.sampled_from([-10.0, 0.0, 20.0]))
    @example(pool=[(1, 2, 300), (1, 3, 300)], order=[0, 1, 0], snr_db=20.0)
    def test_additive_noise_equals_a_fresh_draw(self, pool, order, snr_db):
        for step, index in enumerate(order):
            seed, salt, n = pool[index % len(pool)]
            clip = AudioClip(np.random.default_rng(step).standard_normal(n), SR)
            spec = ChannelSpec(kind="additive_noise", snr_db=snr_db, seed=seed)
            [out] = apply_channel([clip], spec, salt=salt)
            assert np.array_equal(out.samples, additive_noise_fresh(clip, spec, salt))
            assert out.samples.flags.writeable

    def test_a_float_salt_is_refused_after_an_equal_int_salt(self):
        clip = noise_clip(3, seconds=0.01)
        spec = ChannelSpec(kind="additive_noise", seed=4)
        apply_channel([clip], spec, salt=2)
        with pytest.raises(TypeError):
            apply_channel([clip], spec, salt=2.0)

    def test_pitch_factor_scales_lag(self):
        clip = noise_clip(4, seconds=3.0, scale=1.0)
        tagged = embed_single_echo(clip, EchoKey(100, 0.4))
        [shifted] = apply_channel([tagged], ChannelSpec(kind="random_resample", probability=1,
                                                        low=1.25, high=1.25))
        assert shifted.sample_rate == SR
        assert len(shifted) == pytest.approx(len(tagged) / 1.25, rel=1e-3)
        report = detect_single_echo(shifted, band=(25, 170))
        assert report.argmax_lag == 80

    def test_random_resample_probability_extremes(self):
        clip = noise_clip(5, seconds=0.5)
        [never] = apply_channel([clip], ChannelSpec(kind="random_resample", probability=0.0, seed=1))
        assert np.array_equal(never.samples, clip.samples)
        [always] = apply_channel([clip], ChannelSpec(kind="random_resample", probability=1.0, seed=1))
        assert len(always) != len(clip)

    @settings(max_examples=150, deadline=None)
    @given(spec=CHANNELS, n=st.integers(1, 3000),
           rate=st.sampled_from([8000, 44100, 48000]), salt=st.integers(0, 2**32))
    def test_length_bound_holds(self, spec, n, rate, salt):
        clip = AudioClip(np.random.default_rng(n).standard_normal(n), rate)
        assert channel_length_bound(spec, n, rate) <= len(apply_channel([clip], spec, salt)[0])

    @settings(max_examples=100, deadline=None)
    @given(factor=PITCH_FACTORS, n=st.integers(1, 3000), rate=st.sampled_from([8000, 44100, 48000]))
    def test_length_bound_exact_for_a_fixed_factor(self, factor, n, rate):
        spec = ChannelSpec(kind="random_resample", probability=1, low=factor, high=factor)
        clip = AudioClip(np.zeros(n), rate)
        assert channel_length_bound(spec, n, rate) == len(apply_channel([clip], spec)[0])

    # one call degrades all of a cell's conditions: each clip comes out byte for
    # byte as it would alone, in arrays of its own
    @settings(max_examples=100, deadline=None)
    @given(spec=CHANNELS, n=st.integers(1, 3000),
           rate=st.sampled_from([8000, 44100, 48000]), salt=st.integers(0, 2**32))
    def test_a_list_is_degraded_as_each_clip_alone_into_new_arrays(self, spec, n, rate, salt):
        a, b = (AudioClip(np.random.default_rng([n, i]).standard_normal(n), rate) for i in range(2))
        together = apply_channel([a, b], spec, salt)
        alone = [apply_channel([clip], spec, salt)[0] for clip in (a, b)]
        assert [(c.sample_rate, c.samples.tobytes()) for c in together] == \
               [(c.sample_rate, c.samples.tobytes()) for c in alone]
        assert not [(i, j) for i, out in enumerate(together) for j, clip in enumerate((a, b))
                    if np.shares_memory(out.samples, clip.samples)]

    # the one stage walk against the recursions it replaced: the same clips and the
    # same length bound; the alpha product may round apart (by at most 1e-15
    # relative) only where a nested composite holds two or more attenuations,
    # since the walk multiplies in run order and the recursion by composite
    @settings(max_examples=150, deadline=None)
    @given(spec=CHANNELS, n=st.integers(1, 3000),
           rate=st.sampled_from([8000, 44100, 48000]), salt=st.integers(0, 2**32))
    @example(spec=ChannelSpec.from_dict({"kind": "composite", "stages": [
        {"kind": "attenuate_echo", "ratio": 0.1},
        {"kind": "composite", "stages": [{"kind": "attenuate_echo", "ratio": 0.2},
                                         {"kind": "attenuate_echo", "ratio": 0.3}]}]}),
             n=100, rate=44100, salt=0)
    def test_the_stage_walk_equals_the_recursion(self, spec, n, rate, salt):
        clips = [AudioClip(np.random.default_rng([n, i]).standard_normal(n), rate) for i in range(2)]
        assert [(c.sample_rate, c.samples.tobytes()) for c in apply_channel(clips, spec, salt)] == \
               [(c.sample_rate, c.samples.tobytes()) for c in apply_channel_recursive(clips, spec, salt)]
        assert channel_length_bound(spec, n, rate) == channel_length_bound_recursive(spec, n, rate)
        scale, oracle = echo_alpha_scale(spec), echo_alpha_scale_recursive(spec)
        if _nested_attenuations(spec):
            assert abs(scale - oracle) <= 1e-15 * oracle
        else:
            assert scale == oracle

    @pytest.mark.parametrize("clips, problem", [
        ([], "needs at least one clip"),
        ([AudioClip(np.ones(4), SR), AudioClip(np.ones(5), SR)],
         r"one length and one rate, got \(samples, Hz\) \[\(4, 44100\), \(5, 44100\)\]"),
        ([AudioClip(np.ones(4), SR), AudioClip(np.ones(4), 48000)],
         r"one length and one rate, got \(samples, Hz\) \[\(4, 44100\), \(4, 48000\)\]"),
    ], ids=["empty", "lengths", "rates"])
    def test_clips_must_share_one_length_and_one_rate(self, clips, problem):
        with pytest.raises(ValueError, match=problem):
            apply_channel(clips, ChannelSpec(kind="additive_noise"))

    def test_composite_identity_is_monoid_identity(self):
        clip = noise_clip(8, seconds=0.2)
        lone = ChannelSpec(kind="additive_noise", snr_db=15.0, seed=9)
        wrapped = ChannelSpec(kind="composite", stages=[ChannelSpec(), lone])
        # identity stage contributes nothing; the noise stage sees the same
        # (seed, salt-derived) stream in both arrangements
        [direct] = apply_channel([clip], lone, salt=3 * 1000003 + 1)
        [composed] = apply_channel([clip], wrapped, salt=3)
        assert np.array_equal(direct.samples, composed.samples)


class TestDurationSweep:
    def test_rows_and_medians(self):
        corpus = [(f"n{v}", noise_clip((40, v), seconds=12.0, scale=1.0)) for v in range(3)]
        rows = run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0, 10.0],
                                  segments_per_clip=2, seed=1)
        assert len(rows) == 3 * 2 * 2 * 2  # clips x durations x segments x conditions
        embedded = [r for r in rows if r["condition"] == "embedded"]
        assert all(r["argmax_lag"] == 75 for r in embedded)
        clean = [r for r in rows if r["condition"] == "clean"]
        assert -2.0 <= np.median([r["z_at_key"] for r in clean]) <= 2.0
        medians = median_z_by_duration(rows)
        assert medians[10.0] >= medians[5.0]

    def test_deterministic(self):
        corpus = [("a", noise_clip(50, seconds=6.0, scale=1.0))]
        kwargs = dict(durations=[5.0], segments_per_clip=2, seed=3)
        rows_a = run_duration_sweep(corpus, EchoKey(50, 0.4), **kwargs)
        rows_b = run_duration_sweep(corpus, EchoKey(50, 0.4), **kwargs)
        assert [(r["z_at_key"], r["argmax_lag"]) for r in rows_a] == \
               [(r["z_at_key"], r["argmax_lag"]) for r in rows_b]

    def test_attenuation_weakens_embedding(self):
        corpus = [("a", noise_clip(51, seconds=6.0, scale=1.0))]
        strong = run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0],
                                    segments_per_clip=3, seed=4)
        weak = run_duration_sweep(corpus, EchoKey(75, 0.4), durations=[5.0],
                                  segments_per_clip=3, seed=4,
                                  channel=ChannelSpec(kind="attenuate_echo", ratio=0.25))
        z_strong = np.median([r["z_at_key"] for r in strong if r["condition"] == "embedded"])
        z_weak = np.median([r["z_at_key"] for r in weak if r["condition"] == "embedded"])
        assert z_weak < z_strong

    def test_rows_equal_with_the_kernel_memo_cleared_before_each_channel(self, monkeypatch):
        # eval-pitch's channel: a random pitch shift, then noise
        corpus = [(f"n{v}", noise_clip((53, v), seconds=2.5, scale=1.0)) for v in range(2)]
        pitch = {"kind": "random_resample", "probability": 0.5, "low": 0.97, "high": 1.03, "seed": 1}
        noise = {"kind": "additive_noise", "snr_db": 20.0, "seed": 1}
        channel = ChannelSpec.from_dict({"kind": "composite", "stages": [pitch, noise], "seed": 1})
        kwargs = dict(durations=[1.0, 2.0], segments_per_clip=2, channel=channel, seed=2)
        memoized = run_duration_sweep(corpus, EchoKey(75, 0.4), **kwargs)
        original = harness.apply_channel

        def cold(clips, spec, salt=0):
            audio._resample_plan.cache_clear()
            return original(clips, spec, salt)

        monkeypatch.setattr(harness, "apply_channel", cold)
        assert run_duration_sweep(corpus, EchoKey(75, 0.4), **kwargs) == memoized

    def test_rows_are_dicts_of_the_results_columns(self):
        corpus = [("a", noise_clip(54, seconds=3.0, scale=1.0))]
        for key in (EchoKey(75, 0.4), SpreadKey(generate_pattern(64, 3))):
            rows = run_duration_sweep(corpus, key, durations=[1.0, 2.0], segments_per_clip=2, seed=5)
            assert len(rows) == 2 * 2 * 2
            for row in rows:
                assert type(row) is dict
                assert sorted([*row, "experiment", "flips"]) == sorted(evalrun.RESULTS_FIELDS)

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
