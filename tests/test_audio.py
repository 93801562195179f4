import itertools
import os

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echotag import AudioClip, ChannelSpec, detect_single_echo, load_audio, mix, resample, save_audio
from echotag import evalrun
from echotag.audio import _design_resample_kernel
from echotag.embed import EchoKey, embed_single_echo
from echotag.harness import SweepRow
from echotag.keyfiles import write_json
from helpers import SR, noise_clip, resample_fresh, sine_clip

# coprime up/down ratios, near and far from 1
RESAMPLE_RATIOS = [(3, 2), (2, 3), (160, 147), (147, 160), (1024, 1023)]


class TestAudioClip:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([]), SR)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)

    def test_rejects_stereo(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros((4, 2)), SR)


class TestLoadSave:
    def test_stereo_downmix_cancels(self, tmp_path):
        # equal-weight average of channels [1,1,...] and [-1,-1,...] is silence
        path = tmp_path / "stereo.wav"
        data = np.column_stack([np.full(100, 1.0, np.float32), np.full(100, -1.0, np.float32)])
        scipy.io.wavfile.write(path, SR, data)
        clip = load_audio(path)
        assert np.all(clip.samples == 0.0)

    def test_stereo_pcm16_scaled_to_full_scale(self, tmp_path):
        path = tmp_path / "stereo16.wav"
        data = np.array([[1000, 4963], [-32768, -32768], [32767, 1], [-7, 12345]], np.int16)
        scipy.io.wavfile.write(path, SR, data)
        clip = load_audio(path)
        assert np.array_equal(clip.samples, np.mean(data / 2.0**15, axis=1))
        assert clip.samples[0] == 5963 / 65536  # 0.0910 of full scale
        assert clip.samples[1] == -1.0

    def test_stereo_pcm24_scaled_to_full_scale(self, tmp_path):
        path = tmp_path / "stereo24.wav"
        values = np.array([[-2**23, 2**22], [2**23 - 1, 3], [-5, 123457]])
        frames = b"".join(int(v).to_bytes(3, "little", signed=True) for v in values.ravel())
        header = (
            b"RIFF" + (36 + len(frames)).to_bytes(4, "little") + b"WAVE"
            + b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (2).to_bytes(2, "little")
            + SR.to_bytes(4, "little") + (SR * 6).to_bytes(4, "little")
            + (6).to_bytes(2, "little") + (24).to_bytes(2, "little")
            + b"data" + len(frames).to_bytes(4, "little") + frames
        )
        path.write_bytes(header)
        clip = load_audio(path)
        assert np.array_equal(clip.samples, np.mean(values / 2.0**23, axis=1))
        assert clip.samples[0] == -0.25

    def test_stereo_uint8_refused_as_mono_is(self, tmp_path):
        for channels in (1, 2):
            path = tmp_path / f"u8x{channels}.wav"
            scipy.io.wavfile.write(path, SR, np.full((4, channels), 200, np.uint8).squeeze())
            with pytest.raises(ValueError, match=r"unsupported WAV sample format uint8 in .*u8x"):
                load_audio(path)

    def test_zero_length_audio_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        header = (
            b"RIFF" + (36).to_bytes(4, "little") + b"WAVE"
            + b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + SR.to_bytes(4, "little") + (SR * 2).to_bytes(4, "little")
            + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
            + b"data" + (0).to_bytes(4, "little")
        )
        path.write_bytes(header)
        with pytest.raises(ValueError, match="zero-length"):
            load_audio(path)

    def test_non_finite_samples_rejected_with_path(self, tmp_path):
        path = tmp_path / "nan.wav"
        scipy.io.wavfile.write(path, SR, np.array([0.0, np.nan], dtype=np.float32))
        with pytest.raises(ValueError, match=r"finite .* in .*nan\.wav"):
            load_audio(path)

    def test_pcm16_full_scale_negative(self, tmp_path):
        path = tmp_path / "fs.wav"
        scipy.io.wavfile.write(path, SR, np.array([-32768, 32767, 0], np.int16))
        clip = load_audio(path)
        assert clip.samples[0] == -1.0
        assert clip.samples[1] == 32767 / 32768
        assert clip.samples[2] == 0.0

    def test_pcm24_scaling(self, tmp_path):
        # hand-rolled minimal 24-bit WAV with one full-scale negative sample
        path = tmp_path / "p24.wav"
        frames = b"\x00\x00\x80" + b"\x00\x00\x40"  # -2^23, +2^22
        header = (
            b"RIFF" + (36 + len(frames)).to_bytes(4, "little") + b"WAVE"
            + b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + SR.to_bytes(4, "little") + (SR * 3).to_bytes(4, "little")
            + (3).to_bytes(2, "little") + (24).to_bytes(2, "little")
            + b"data" + len(frames).to_bytes(4, "little") + frames
        )
        path.write_bytes(header)
        clip = load_audio(path)
        assert clip.samples[0] == -1.0
        assert clip.samples[1] == 0.5

    def test_float32_roundtrip_bit_identical(self, tmp_path):
        clip = noise_clip(3, seconds=0.5)
        path = tmp_path / "f32.wav"
        save_audio(clip, path, format="float32")
        loaded = load_audio(path)
        assert loaded.sample_rate == SR
        assert np.array_equal(loaded.samples, clip.samples.astype(np.float32).astype(np.float64))
        assert np.max(np.abs(loaded.samples - clip.samples)) <= 1e-6

    def test_pcm16_roundtrip_quantization_bound(self, tmp_path):
        clip = noise_clip(4, seconds=0.25, scale=0.2)
        path = tmp_path / "p16.wav"
        clipped = save_audio(clip, path, format="pcm16")
        assert clipped == 0
        loaded = load_audio(path)
        assert np.max(np.abs(loaded.samples - clip.samples)) <= 2.0**-15

    def test_pcm16_zero_clip_writes_zero_words(self, tmp_path):
        path = tmp_path / "zeros.wav"
        save_audio(AudioClip(np.zeros(64), SR), path, format="pcm16")
        raw = path.read_bytes()
        data_at = raw.index(b"data") + 8
        assert raw[data_at:] == b"\x00" * 128

    def test_pcm16_saturates_and_counts(self, tmp_path, caplog):
        path = tmp_path / "sat.wav"
        with caplog.at_level("WARNING"):
            clipped = save_audio(AudioClip(np.array([2.0, 0.0, -3.0]), SR), path, format="pcm16")
        assert clipped == 2
        assert "clipped 2" in caplog.text
        rate, data = scipy.io.wavfile.read(path)
        assert data[0] == 32767  # stored as 32767/32768
        assert data[2] == -32768

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_audio(AudioClip(np.zeros(4), SR), tmp_path / "x.wav", format="mp3")

    def test_unsupported_codec(self, tmp_path):
        # mu-law format tag = 7
        path = tmp_path / "ulaw.wav"
        frames = b"\x00" * 8
        header = (
            b"RIFF" + (36 + len(frames)).to_bytes(4, "little") + b"WAVE"
            + b"fmt " + (16).to_bytes(4, "little")
            + (7).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + SR.to_bytes(4, "little") + SR.to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (8).to_bytes(2, "little")
            + b"data" + len(frames).to_bytes(4, "little") + frames
        )
        path.write_bytes(header)
        with pytest.raises(ValueError, match="unsupported|compressed"):
            load_audio(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_audio(tmp_path / "nope.wav")

    def test_extra_chunks_skipped(self, tmp_path):
        # LIST chunk between fmt and data must be tolerated
        path = tmp_path / "list.wav"
        frames = np.array([1000, -1000], np.int16).tobytes()
        list_chunk = b"LIST" + (12).to_bytes(4, "little") + b"INFOIART" + (0).to_bytes(4, "little")
        header = (
            b"RIFF" + (36 + len(list_chunk) + len(frames)).to_bytes(4, "little") + b"WAVE"
            + b"fmt " + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
            + SR.to_bytes(4, "little") + (SR * 2).to_bytes(4, "little")
            + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
            + list_chunk
            + b"data" + len(frames).to_bytes(4, "little") + frames
        )
        path.write_bytes(header)
        clip = load_audio(path)
        assert len(clip) == 2


class TestResample:
    def test_identity_short_circuit(self):
        clip = noise_clip(0, seconds=0.1)
        out = resample(clip, SR)
        assert out.sample_rate == SR
        assert np.array_equal(out.samples, clip.samples)
        assert out.samples is not clip.samples

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            resample(noise_clip(0, seconds=0.01), 0)

    def test_sine_against_analytic_target(self):
        # 1 kHz at 48 kHz resampled to 44.1 kHz vs directly generated target
        src = sine_clip(1000.0, seconds=1.0, rate=48000)
        out = resample(src, 44100)
        assert len(out) == round(48000 * 44100 / 48000)
        t = np.arange(len(out)) / 44100
        target = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        assert np.max(np.abs(out.samples - target)[100:-100]) <= 1e-3

    def test_output_length_rule(self):
        clip = noise_clip(1, seconds=0.013)  # 573 samples
        out = resample(clip, 48000)
        assert len(out) == round(len(clip) * 48000 / SR)

    def test_rates_near_the_source_rate(self):
        # 44,095-44,105 Hz are nearer 44.1 kHz than the polyphase cap can tell
        clip = noise_clip(2, seconds=1.0)
        for target in range(44080, 44121):
            out = resample(clip, target)
            assert out.sample_rate == target
            assert len(out) == round(len(clip) * target / SR)

    # a drawn order of ratios, so one repeats and alternates with others (a, b, a):
    # the kept kernel must never stand in for another ratio's
    @settings(max_examples=25, deadline=None)
    @given(order=st.lists(st.sampled_from(RESAMPLE_RATIOS), min_size=1, max_size=6),
           n=st.integers(min_value=1, max_value=3000))
    @example(order=[(160, 147), (147, 160), (160, 147)], n=2000)
    def test_equals_a_freshly_designed_kernel(self, order, n):
        for step, (up, down) in enumerate(order):
            clip = AudioClip(np.random.default_rng(step).standard_normal(n), 100 * down)
            out = resample(clip, 100 * up)
            assert np.array_equal(out.samples, resample_fresh(clip, up, down))

    def test_kept_kernel_is_read_only(self):
        kernel = _design_resample_kernel(3, 2)
        with pytest.raises(ValueError):
            kernel[0] = 1.0

    def test_echo_lag_scales_with_rate(self):
        # lag-100 echo upsampled by 1.25 lands at lag 125 (44.1k -> 55.125k)
        carrier = noise_clip(7, seconds=3.0, scale=1.0)
        tagged = embed_single_echo(carrier, EchoKey(100))
        up = resample(tagged, 55125)
        reinterpreted = AudioClip(up.samples, SR)
        report = detect_single_echo(reinterpreted, band=(25, 170))
        assert report.argmax_lag == 125

    def test_round_trip_rms_on_bandlimited(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(SR)
        spectrum = np.fft.rfft(x)
        spectrum[int(0.4 * len(spectrum)):] = 0.0
        clip = AudioClip(np.fft.irfft(spectrum, n=len(x)), SR)
        back = resample(resample(clip, 48000), SR)
        n = min(len(back), len(clip))
        err = back.samples[:n] - clip.samples[:n]
        rel_rms = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(clip.samples**2))
        assert rel_rms <= 1e-3


class TestMix:
    def test_single_clip_identity(self):
        clip = noise_clip(2, seconds=0.1)
        out = mix([clip], [1.0])
        assert np.array_equal(out.samples, clip.samples)

    def test_two_halves_reconstruct(self):
        clip = noise_clip(3, seconds=0.1)
        out = mix([clip, clip], [0.5, 0.5])
        assert np.allclose(out.samples, clip.samples, atol=1e-15)

    def test_three_noise_matches_direct_sum(self):
        clips = [noise_clip(s, seconds=0.05) for s in (10, 11, 12)]
        out = mix(clips, [1 / 3] * 3)
        direct = sum(c.samples for c in clips) / 3
        assert np.allclose(out.samples, direct, atol=1e-15)

    def test_zero_padding_to_longest(self):
        a = AudioClip(np.ones(10), SR)
        b = AudioClip(np.ones(4), SR)
        out = mix([a, b], [1.0, 1.0])
        assert len(out) == 10
        assert np.all(out.samples[:4] == 2.0)
        assert np.all(out.samples[4:] == 1.0)

    def test_linearity(self):
        a, b = noise_clip(20, seconds=0.02), noise_clip(21, seconds=0.03)
        joint = mix([a, b], [0.3, -0.7])
        split = mix([a], [0.3]).samples
        split = np.pad(split, (0, len(joint) - len(split)))
        split = split + mix([b], [-0.7]).samples
        assert np.allclose(joint.samples, split, atol=1e-15)

    def test_errors(self):
        a = noise_clip(0, seconds=0.01)
        b = AudioClip(a.samples, 48000)
        with pytest.raises(ValueError):
            mix([], [])
        with pytest.raises(ValueError):
            mix([a, b], [1.0, 1.0])
        with pytest.raises(ValueError):
            mix([a], [1.0, 2.0])


def _save_audio_failing_mid_write(target, monkeypatch):
    def write_then_fail(fh, rate, data):
        fh.write(b"RIFF")  # the header has begun when the disk fills
        raise OSError("No space left on device")

    monkeypatch.setattr(scipy.io.wavfile, "write", write_then_fail)
    save_audio(noise_clip(5, seconds=0.1), target)


def _write_json_failing_mid_write(target, monkeypatch):
    write_json(target, {"a": 1, "b": object()})  # "a" is written before "b" fails to encode


def _evaluate_three_rows(output_dir, monkeypatch, z=9.0):
    rows = [SweepRow("c0", "embedded", 5.0, index, "k", 75, z, False) for index in range(3)]
    monkeypatch.setattr(evalrun, "run_duration_sweep", lambda *args, **kwargs: rows)
    evalrun.run_evaluation(evalrun.EvalConfig(
        corpus=[], key_name="k", key=EchoKey(75), output_dir=str(output_dir), seed=0,
        channel=ChannelSpec(), durations=[5.0], segments_per_clip=1, band=(25, 125),
        include_clean=True, flips=None, bitflip_duration=30.0))


def _results_csv_failing_mid_write(target, monkeypatch):
    calls, fmt = itertools.count(), evalrun.csv_value

    def fmt_then_fail(value):  # fails halfway through the second row
        if next(calls) == 3 * len(evalrun.RESULTS_FIELDS) // 2:
            raise OSError("No space left on device")
        return fmt(value)

    monkeypatch.setattr(evalrun, "csv_value", fmt_then_fail)
    _evaluate_three_rows(target.parent, monkeypatch)


# case -> (target file name, a write that fails partway, given (target, monkeypatch))
WRITES_FAILING_MID_WRITE = {
    "save_audio": ("o.wav", _save_audio_failing_mid_write),
    "write_json": ("o.json", _write_json_failing_mid_write),
    "results.csv": ("results.csv", _results_csv_failing_mid_write),
}


def _second_replace_failing(monkeypatch):
    calls, replace = itertools.count(1), os.replace

    def replace_then_fail(src, dst):
        if next(calls) == 2:
            raise OSError("No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_then_fail)


def _summary_json_failing_mid_write(monkeypatch):
    monkeypatch.setattr(evalrun, "write_json",
                        lambda path, summary: write_json(path, {**summary, "z": object()}))


class TestEvaluateWritesSummaryLast:
    @pytest.mark.parametrize("earlier_run", [False, True])
    @pytest.mark.parametrize("failure", [_second_replace_failing, _summary_json_failing_mid_write],
                             ids=["second-replace", "summary-json-mid-write"])
    def test_a_stopped_run_leaves_no_summary_json(self, tmp_path, monkeypatch, failure, earlier_run):
        """No summary.json is left beside a results.csv it does not describe."""
        _evaluate_three_rows(tmp_path / "finished", monkeypatch)
        run_dir = tmp_path / "run"
        if earlier_run:
            _evaluate_three_rows(run_dir, monkeypatch, z=5.0)
        failure(monkeypatch)
        with pytest.raises((OSError, TypeError)):
            _evaluate_three_rows(run_dir, monkeypatch)
        assert os.listdir(run_dir) == ["results.csv"]  # no temp file either
        assert (run_dir / "results.csv").read_bytes() == (tmp_path / "finished" / "results.csv").read_bytes()

    def test_a_rerun_replaces_both_files(self, tmp_path, monkeypatch):
        _evaluate_three_rows(tmp_path / "finished", monkeypatch)
        _evaluate_three_rows(tmp_path / "rerun", monkeypatch, z=5.0)
        _evaluate_three_rows(tmp_path / "rerun", monkeypatch)
        for name in ("results.csv", "summary.json"):
            assert (tmp_path / "rerun" / name).read_bytes() == (tmp_path / "finished" / name).read_bytes()


class TestAtomicOutput:
    @pytest.mark.parametrize("old", [None, b"old bytes"])
    @pytest.mark.parametrize("case", sorted(WRITES_FAILING_MID_WRITE))
    def test_failed_write_leaves_the_target_as_it_was(self, tmp_path, monkeypatch, case, old):
        name, write = WRITES_FAILING_MID_WRITE[case]
        target = tmp_path / name
        if old is not None:
            target.write_bytes(old)
        with pytest.raises((OSError, TypeError)):
            write(target, monkeypatch)
        # no temp file is left behind, and evaluate wrote no summary.json either
        assert os.listdir(tmp_path) == ([] if old is None else [name])
        if old is not None:
            assert target.read_bytes() == old

    def test_output_and_overwrite_match_a_direct_write(self, tmp_path):
        clip = noise_clip(6, seconds=0.1)
        scipy.io.wavfile.write(tmp_path / "direct.wav", SR, clip.samples.astype(np.float32))
        save_audio(AudioClip(np.zeros(8), SR), tmp_path / "a.wav")
        save_audio(clip, tmp_path / "a.wav")
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "direct.wav").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["a.wav", "direct.wav"]

    def test_error_names_the_target_not_its_temp_file(self, tmp_path):
        target = tmp_path / "missing" / "o.wav"
        with pytest.raises(FileNotFoundError) as info:
            save_audio(noise_clip(7, seconds=0.1), target)
        assert info.value.filename == str(target)
