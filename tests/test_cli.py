import argparse
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import echotag
from echotag import (AudioClip, EchoKey, SpreadKey, detect_spread, generate_pattern, generate_pattern_set,
                     load_audio, load_key_file, save_audio, save_key_file)
from echotag.cli import build_parser, main
from echotag.evalrun import load_eval_config
from echotag.keyfiles import ConfigError, bits_to_hex, hex_to_bits, load_pattern_set
from helpers import SR, noise_clip


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "keys.json"
    save_key_file({
        "echo75": EchoKey(75, 0.4),
        "echo50": EchoKey(50, 0.4),
        "echo200": EchoKey(200, 0.4),  # outside the default scan band
        "pn0": SpreadKey(generate_pattern(1024, 11)),
    }, path)
    return path


@pytest.fixture
def carrier_wav(tmp_path):
    path = tmp_path / "carrier.wav"
    save_audio(noise_clip(100, seconds=5.0, scale=1.0), path, format="float32")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so that logging is configured as it is for a user."""
    src = os.path.dirname(os.path.dirname(echotag.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "echotag.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def save_noise(path, rate, seconds=5.0, seed=7):
    rng = np.random.default_rng(seed)
    save_audio(AudioClip(rng.standard_normal(int(rate * seconds)), rate), path, format="float32")
    return path


class TestGenPatterns:
    def test_writes_file_with_distances(self, tmp_path, capsys):
        out = tmp_path / "ps.json"
        assert run_cli("--seed", 1, "gen-patterns", "--count", 8, "--length", 1024,
                       "--out", out) == 0
        ps = load_pattern_set(out)
        assert ps.count == 8 and ps.length == 1024
        assert ps.distance_matrix.shape == (8, 8)
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["distances"]) == 28

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("--seed", 2, "gen-patterns", "--count", 4, "--length", 512, "--out", a)
        run_cli("--seed", 2, "gen-patterns", "--count", 4, "--length", 512, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "ps.json"
        assert run_cli("--seed", -1, "gen-patterns", "--count", 4, "--out", out) == 1
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_count_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "ps.json"
        assert run_cli("gen-patterns", "--count", 1, "--out", out) == 1
        assert not out.exists()
        assert "at least 2" in capsys.readouterr().err

    def test_keys_named_in_generation_order(self, tmp_path):
        out = tmp_path / "keys.json"
        assert run_cli("--seed", 3, "gen-patterns", "--count", 12, "--length", 512, "--out", out) == 0
        assert list(load_key_file(out)) == [f"pn{i:02d}" for i in range(12)]
        expected = generate_pattern_set(12, 512, 3).patterns
        assert [p.tolist() for p in load_pattern_set(out).patterns] == [p.tolist() for p in expected]

    def test_spread_key_round_trip_through_the_cli_alone(self, tmp_path, carrier_wav, capsys):
        keys, tagged = tmp_path / "keys.json", tmp_path / "tagged.wav"
        assert run_cli("--seed", 1, "gen-patterns", "--count", 4, "--out", keys) == 0
        assert run_cli("embed", "--in", carrier_wav, "--out", tagged, "--key-file", keys, "--key", "pn3") == 0
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keys, "--key", "pn3") == 0
        assert json.loads(capsys.readouterr().out)["argmax_lag"] == 75

    def test_spread_targets_missed_is_one_error_line(self, tmp_path):
        out = tmp_path / "ps.json"
        proc = run_cli_process("gen-patterns", "--count", 8, "--length", 4, "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "echotag: error: pattern generation did not reach the distance-spread targets "
            "(count=8, length=4, seed=0); try another seed"]
        assert not out.exists()


class TestEmbedDetect:
    def test_round_trip_json(self, tmp_path, keyfile, carrier_wav, capsys):
        tagged = tmp_path / "tagged.wav"
        assert run_cli("embed", "--in", carrier_wav, "--out", tagged,
                       "--key-file", keyfile, "--key", "echo75") == 0
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keyfile,
                       "--key", "echo75") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["argmax_lag"] == 75
        assert report["z_at_key"] > 5.0
        assert "z" not in report  # profile only with --full-profile

    def test_detect_json_names_the_clip_and_key(self, keyfile, carrier_wav, capsys):
        assert run_cli("detect", "--in", carrier_wav, "--key-file", keyfile,
                       "--key", "echo50") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clip_id"] == "carrier.wav"
        assert report["key_id"] == "echo50"
        assert report["duration_seconds"] == 5.0

    def test_round_trip_all_canonical_echoes(self, tmp_path, keyfile, carrier_wav, capsys):
        for delta in (50, 75, 76, 100):
            kf = tmp_path / f"k{delta}.json"
            save_key_file({"k": EchoKey(delta, 0.4)}, kf)
            tagged = tmp_path / f"tagged{delta}.wav"
            assert run_cli("embed", "--in", carrier_wav, "--out", tagged, "--key-file", kf) == 0
            capsys.readouterr()
            assert run_cli("detect", "--in", tagged, "--key-file", kf) == 0
            assert json.loads(capsys.readouterr().out)["argmax_lag"] == delta

    def test_detect_csv_format(self, tmp_path, keyfile, carrier_wav, capsys):
        tagged = tmp_path / "tagged.wav"
        run_cli("embed", "--in", carrier_wav, "--out", tagged, "--key-file", keyfile,
                "--key", "echo50")
        capsys.readouterr()
        assert run_cli("detect", "--format", "csv", "--in", tagged,
                       "--key-file", keyfile, "--key", "echo50") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["clip_id", "key_id"]
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == "false"  # spelled as results.csv spells it

    def test_report_format_checked_before_detecting(self, keyfile, carrier_wav, capsys,
                                                    monkeypatch):
        monkeypatch.setattr("echotag.cli.detect_single_echo", _work_that_must_not_run)
        assert run_cli("detect", "--format", "xml", "--in", carrier_wav,
                       "--key-file", keyfile, "--key", "echo75") == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "echotag: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"]

    def test_spread_round_trip(self, tmp_path, keyfile, capsys):
        carrier = tmp_path / "long.wav"
        save_audio(noise_clip(101, seconds=10.0, scale=1.0), carrier, format="float32")
        tagged = tmp_path / "spread.wav"
        assert run_cli("embed", "--in", carrier, "--out", tagged,
                       "--key-file", keyfile, "--key", "pn0") == 0
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keyfile, "--key", "pn0") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["argmax_lag"] == 75
        assert report["source"] == "spread_correlation"

    def test_enhanced_spread_detection(self, tmp_path, keyfile, capsys):
        carrier = tmp_path / "long.wav"
        save_audio(noise_clip(102, seconds=10.0, scale=1.0), carrier, format="float32")
        tagged = tmp_path / "spread.wav"
        assert run_cli("embed", "--in", carrier, "--out", tagged, "--key-file", keyfile, "--key", "pn0") == 0
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keyfile, "--key", "pn0", "--enhanced") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["source"] == "spread_correlation_enhanced"
        assert report["argmax_lag"] == 75
        key = load_key_file(keyfile)["pn0"]
        expected = detect_spread(load_audio(tagged), key, enhanced=True).to_dict(include_profile=False)
        assert {name: report[name] for name in expected} == expected

    @pytest.mark.parametrize("band, expected", [([], [25, 125]), (["--band", 50, 100], [50, 100])],
                             ids=["default-band", "band-50-100"])
    def test_full_profile_holds_a_z_per_lag_of_the_band(self, tmp_path, keyfile, carrier_wav, capsys,
                                                        band, expected):
        tagged = tmp_path / "tagged.wav"
        assert run_cli("embed", "--in", carrier_wav, "--out", tagged,
                       "--key-file", keyfile, "--key", "echo75") == 0
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keyfile, "--key", "echo75", *band,
                       "--full-profile") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["band"] == expected
        assert len(report["z"]) == expected[1] - expected[0] + 1
        assert report["z"][75 - expected[0]] == report["z_at_key"] > 5.0

    @pytest.mark.parametrize("key, flags, message", [
        ("echo75", ["--enhanced"], "--enhanced is for spread keys, and key 'echo75' is a single echo"),
        ("pn0", ["--band", 30, 60], "--band is for single-echo keys, and key 'pn0' is a spread key"),
        ("pn0", ["--band", 25, 125], "--band is for single-echo keys, and key 'pn0' is a spread key"),
        ("echo75", ["--band", 0, 125], "band must start at lag 1 or later; quefrency 0 is the log level, got 0"),
        ("echo75", ["--band", 125, 25], "band [125, 25] must hold at least 3 lags"),
        ("echo75", ["--band", 100, 200], "echo lag 75 outside the scan band [100, 200]"),
        ("echo200", [], "echo lag 200 outside the scan band [25, 125]"),
    ], ids=["enhanced-single-echo", "band-spread", "default-band-spread", "band-from-lag-zero",
            "band-reversed", "band-without-the-key-lag", "key-lag-outside-the-default-band"])
    def test_the_other_detectors_flag_refused_before_reading(self, keyfile, carrier_wav, capsys,
                                                             monkeypatch, key, flags, message):
        monkeypatch.setattr("echotag.cli.load_audio", _work_that_must_not_run)
        assert run_cli("detect", "--in", carrier_wav, "--key-file", keyfile, "--key", key, *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"echotag: error: {message}"]

    def test_embed_does_not_mutate_input(self, tmp_path, keyfile, carrier_wav):
        before = carrier_wav.read_bytes()
        run_cli("embed", "--in", carrier_wav, "--out", tmp_path / "o.wav",
                "--key-file", keyfile, "--key", "echo75")
        assert carrier_wav.read_bytes() == before

    def test_alpha_zero_key_is_noop(self, tmp_path, keyfile, carrier_wav, capsys):
        kf = tmp_path / "null_key.json"
        save_key_file({"nul": EchoKey(75, 0.0)}, kf)
        out = tmp_path / "same.wav"
        assert run_cli("embed", "--in", carrier_wav, "--out", out, "--key-file", kf) == 0
        original = load_audio(carrier_wav)  # already canonical 44.1k mono
        written = load_audio(out)
        assert np.array_equal(written.samples, original.samples)

    def test_clip_too_short_fails(self, tmp_path, keyfile, capsys):
        tiny = tmp_path / "tiny.wav"
        save_audio(noise_clip(0, seconds=50 / SR), tiny, format="float32")
        assert run_cli("embed", "--in", tiny, "--out", tmp_path / "o.wav",
                       "--key-file", keyfile, "--key", "echo75") == 1
        assert "echo lag" in capsys.readouterr().err

    def test_missing_key_file(self, tmp_path, carrier_wav, capsys):
        assert run_cli("detect", "--in", carrier_wav,
                       "--key-file", tmp_path / "nope.json") == 1
        assert "key file" in capsys.readouterr().err

    def test_malformed_key_entries_listed(self, tmp_path, carrier_wav, capsys):
        bad = tmp_path / "bad_keys.json"
        bad.write_text(json.dumps({"version": 1, "keys": {
            "k": [1],
            "pn": {"type": "spread", "alpha": 0.01, "delta": 75, "length": 8, "bits": 5},
        }}))
        assert run_cli("detect", "--in", carrier_wav, "--key-file", bad) == 1
        err = capsys.readouterr().err
        assert "key 'k': must be a JSON object" in err
        assert "key 'pn': 'bits' must be a hex string, got 5" in err

    def test_non_wav_input_named_once(self, tmp_path, keyfile, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_text("not audio")
        assert run_cli("detect", "--in", bad, "--key-file", keyfile, "--key", "echo75") == 1
        err = capsys.readouterr().err
        assert "unsupported or compressed WAV file" in err
        assert err.count(str(bad)) == 1

    def test_clean_file_detection_still_exits_zero(self, keyfile, carrier_wav, capsys):
        # detection is a measurement, not a pass/fail gate
        assert run_cli("detect", "--in", carrier_wav,
                       "--key-file", keyfile, "--key", "echo75") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["z_at_key"]) < 5.0

    def test_resample_canonicalizes(self, tmp_path, keyfile, capsys):
        hi = save_noise(tmp_path / "hi.wav", 48000)
        tagged = tmp_path / "tagged.wav"
        assert run_cli("embed", "--in", hi, "--out", tagged,
                       "--key-file", keyfile, "--key", "echo75") == 0
        assert load_audio(tagged).sample_rate == 44100
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keyfile, "--key", "echo75") == 0
        assert json.loads(capsys.readouterr().out)["argmax_lag"] == 75

    def test_native_sample_rate_keeps_the_file_rate(self, tmp_path, keyfile, capsys):
        hi = save_noise(tmp_path / "hi.wav", 48000)
        tagged = tmp_path / "tagged.wav"
        assert run_cli("embed", "--sample-rate", "native", "--in", hi, "--out", tagged,
                       "--key-file", keyfile, "--key", "echo75") == 0
        assert load_audio(tagged).sample_rate == 48000
        capsys.readouterr()
        lags = {}
        for flags in (["--sample-rate", "native"], []):
            assert run_cli("detect", *flags, "--in", tagged, "--key-file", keyfile, "--key", "echo75") == 0
            lags[tuple(flags)] = json.loads(capsys.readouterr().out)["argmax_lag"]
        # resampled to 44.1 kHz, the echo moves to 75 * 44100 / 48000 = 68.9 samples
        assert lags == {("--sample-rate", "native"): 75, (): 69}

    def test_sample_rate_sets_the_canonical_rate(self, tmp_path, keyfile, carrier_wav):
        tagged = tmp_path / "tagged.wav"
        assert run_cli("embed", "--sample-rate", 48000, "--in", carrier_wav, "--out", tagged,
                       "--key-file", keyfile, "--key", "echo75") == 0
        assert load_audio(tagged).sample_rate == 48000


class TestTagDataset:
    def _write_manifest(self, tmp_path, keyfile, entries=(), **extra):
        manifest = {
            "version": 1,
            "key_file": str(keyfile),
            "base_input_dir": str(tmp_path / "in"),
            "base_output_dir": str(tmp_path / "out"),
            "entries": list(entries),
        }
        manifest.update(extra)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def _make_corpus(self, tmp_path, names):
        os.makedirs(tmp_path / "in", exist_ok=True)
        for index, name in enumerate(names):
            save_audio(noise_clip((200, index), seconds=3.0, scale=1.0),
                       tmp_path / "in" / name, format="float32")

    def test_three_files_round_trip(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav", "b.wav", "c.wav"])
        manifest = self._write_manifest(tmp_path, keyfile,
                                        [{"input": "*.wav", "key": "echo50"}])
        assert run_cli("tag-dataset", "--manifest", manifest) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["files"] == 3 and summary["succeeded"] == 3
        lock = json.loads((tmp_path / "out" / "tag_lock.json").read_text())
        assert len(lock["outputs"]) == 3
        for name in ("a.wav", "b.wav", "c.wav"):
            assert run_cli("detect", "--in", tmp_path / "out" / name,
                           "--key-file", keyfile, "--key", "echo50") == 0
            assert json.loads(capsys.readouterr().out)["argmax_lag"] == 50

    def test_parallel_jobs_match_serial(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav", "b.wav", "c.wav", "d.wav"])
        manifest = self._write_manifest(tmp_path, keyfile,
                                        [{"input": "*.wav", "key": "echo75",
                                          "output_dir": "serial"}])
        run_cli("tag-dataset", "--manifest", manifest)
        manifest2 = self._write_manifest(tmp_path, keyfile,
                                         [{"input": "*.wav", "key": "echo75",
                                           "output_dir": "parallel"}])
        run_cli("tag-dataset", "--jobs", 4, "--manifest", manifest2)
        capsys.readouterr()
        for name in ("a.wav", "b.wav", "c.wav", "d.wav"):
            serial = (tmp_path / "out" / "serial" / name).read_bytes()
            parallel = (tmp_path / "out" / "parallel" / name).read_bytes()
            assert serial == parallel

    def test_jobs_below_one_rejected(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav"])
        manifest = self._write_manifest(tmp_path, keyfile, [{"input": "a.wav", "key": "echo50"}])
        for jobs in (0, -2):
            assert run_cli("tag-dataset", "--jobs", jobs, "--manifest", manifest) == 1
            assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_native_sample_rate_keeps_the_file_rate(self, tmp_path, keyfile, capsys):
        os.makedirs(tmp_path / "in")
        save_noise(tmp_path / "in" / "hi.wav", 48000, seconds=3.0)
        manifest = self._write_manifest(tmp_path, keyfile, [{"input": "hi.wav", "key": "echo75"}])
        assert run_cli("tag-dataset", "--sample-rate", "native", "--manifest", manifest) == 0
        assert load_audio(tmp_path / "out" / "hi.wav").sample_rate == 48000
        lock = json.loads((tmp_path / "out" / "tag_lock.json").read_text())
        assert list(lock["outputs"]) == [str(tmp_path / "out" / "hi.wav")]

    def test_output_collision_rejected_before_writes(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav"])
        manifest = self._write_manifest(tmp_path, keyfile, [
            {"input": "a.wav", "key": "echo50"},
            {"input": "a.wav", "key": "echo75"},
        ])
        assert run_cli("tag-dataset", "--manifest", manifest) == 1
        assert "collision" in capsys.readouterr().err
        assert not (tmp_path / "out" / "a.wav").exists()

    def test_malformed_manifest_fields_rejected(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav"])
        entry = {"input": "a.wav", "key": "echo50"}
        for overrides, expected in (
            ({"entries": [1]}, "'entries' must be a list of JSON objects, got [1]"),
            ({"entries": [entry], "base_input_dir": 5}, "'base_input_dir' must be a directory path, got 5"),
            ({"entries": [entry], "resample": False}, "'resample' must be left out (tag-dataset --sample-rate "
                                                      "native keeps each file's own rate), got False"),
            ({"entries": [entry], "resampel": True}, "unknown field 'resampel'"),
            ({"entries": [{**entry, "outptu_dir": "x"}]}, "entry 0: unknown field 'outptu_dir'"),
        ):
            manifest = self._write_manifest(tmp_path, keyfile, **overrides)
            assert run_cli("tag-dataset", "--manifest", manifest) == 1
            assert expected in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_overwrite_must_be_a_boolean(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav"])
        entries = [{"input": "a.wav", "key": "echo50"}]
        assert run_cli("tag-dataset", "--manifest", self._write_manifest(tmp_path, keyfile, entries)) == 0
        before = (tmp_path / "out" / "a.wav").read_bytes()
        manifest = self._write_manifest(tmp_path, keyfile, entries, overwrite="false")
        assert run_cli("tag-dataset", "--manifest", manifest) == 1
        assert "'overwrite' must be a boolean" in capsys.readouterr().err
        assert (tmp_path / "out" / "a.wav").read_bytes() == before

    def test_format_flag_refused_before_any_write(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav"])
        manifest = self._write_manifest(tmp_path, keyfile, [{"input": "a.wav", "key": "echo50"}])
        assert run_cli("tag-dataset", "--format", "pcm16", "--manifest", manifest) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["echotag: error: unrecognized arguments: --format pcm16"]
        assert not (tmp_path / "out").exists()

    def test_empty_manifest_succeeds(self, tmp_path, keyfile, capsys):
        manifest = self._write_manifest(tmp_path, keyfile, [])
        assert run_cli("tag-dataset", "--manifest", manifest) == 0
        assert json.loads(capsys.readouterr().out)["files"] == 0

    def test_partial_failure_continues(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["good.wav"])
        save_audio(noise_clip(1, seconds=50 / SR), tmp_path / "in" / "short.wav",
                   format="float32")
        manifest = self._write_manifest(tmp_path, keyfile,
                                        [{"input": "*.wav", "key": "echo75"}])
        assert run_cli("tag-dataset", "--manifest", manifest) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["succeeded"] == 1
        assert len(summary["failed"]) == 1
        assert (tmp_path / "out" / "good.wav").exists()


class TestPayloadCli:
    def test_encode_decode_round_trip(self, tmp_path, capsys):
        carrier = tmp_path / "c.wav"
        save_audio(noise_clip(300, seconds=1.0, scale=1.0), carrier, format="float32")
        rng = np.random.default_rng(300)
        bits = rng.integers(0, 2, size=40).astype(np.uint8)
        out = tmp_path / "enc.wav"
        assert run_cli("payload", "encode", "--in", carrier, "--out", out,
                       "--bits", bits_to_hex(bits), "--n-bits", 40) == 0
        capsys.readouterr()
        assert run_cli("payload", "decode", "--in", out, "--n-bits", 40) == 0
        decoded = json.loads(capsys.readouterr().out)["bits"]
        errors = int(np.sum(hex_to_bits(decoded, 40) != bits))
        assert errors <= 2

    def test_codec_flags_reach_both_halves(self, tmp_path, capsys):
        carrier = tmp_path / "c.wav"
        save_audio(noise_clip(303, seconds=1.0, scale=1.0), carrier, format="float32")
        bits = np.random.default_rng(303).integers(0, 2, size=80).astype(np.uint8)
        codec = ["--alpha", 0.3, "--window", 512, "--n-bits", 80]
        out = tmp_path / "enc.wav"
        assert run_cli("payload", "encode", "--in", carrier, "--out", out, "--bits", bits_to_hex(bits),
                       "--delta0", 30, "--delta1", 60, *codec) == 0
        assert json.loads(capsys.readouterr().out)["bits_per_second"] == SR / 512
        errors = {}
        for lags in ((30, 60), (60, 30)):  # swapped lags read every bit inverted
            assert run_cli("payload", "decode", "--in", out, "--delta0", lags[0], "--delta1", lags[1], *codec) == 0
            errors[lags] = int(np.sum(hex_to_bits(json.loads(capsys.readouterr().out)["bits"], 80) != bits))
        assert errors[30, 60] <= 2  # the codec's error rate on noise, as in the default round trip
        assert errors[60, 30] >= 78

    def test_capacity_exceeded(self, tmp_path, capsys):
        carrier = tmp_path / "c.wav"
        save_audio(noise_clip(301, seconds=0.1), carrier, format="float32")
        assert run_cli("payload", "encode", "--in", carrier, "--out", tmp_path / "o.wav",
                       "--bits", "ff", "--n-bits", 8) == 1
        assert "capacity" in capsys.readouterr().err

    def test_audio_format_checked_before_encoding(self, tmp_path, capsys):
        carrier = tmp_path / "c.wav"
        save_audio(noise_clip(302, seconds=1.0, scale=1.0), carrier, format="float32")
        out = tmp_path / "o.wav"
        assert run_cli("payload", "encode", "--format", "csv", "--in", carrier, "--out", out,
                       "--bits", "ff", "--n-bits", 8) == 1
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bits, n_bits, message", [
        ("a5", -3, "argument --n-bits: must be at least 0, got -3"),
        ("a5z", 8, "'a5z' is not a hex string"),
    ])
    def test_bad_payload_bits_fail_with_one_line(self, tmp_path, carrier_wav, capsys,
                                                 bits, n_bits, message):
        out = tmp_path / "o.wav"
        assert run_cli("payload", "encode", "--in", carrier_wav, "--out", out,
                       "--bits", bits, "--n-bits", n_bits) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"echotag: error: {message}"]
        assert captured.out == ""
        assert not out.exists()


# argv of a payload command with a bad argument, from (tmp_path, carrier_wav), and its one error line
PAYLOAD_ARGUMENT_ERRORS = {
    "encode-without-bits": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--out", tmp / "o.wav", "--n-bits", 8],
        "the following arguments are required: --bits"),
    "encode-without-n-bits": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--out", tmp / "o.wav", "--bits", "ff"],
        "the following arguments are required: --n-bits"),
    "encode-without-out": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--bits", "ff", "--n-bits", 8],
        "the following arguments are required: --out"),
    "encode-into-missing-dir": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--out", tmp / "missing" / "o.wav", "--bits", "ff", "--n-bits", 8],
        f"--out directory {str(tmp / 'missing')!r} does not exist"),
    "encode-csv-format": lambda tmp, wav: (
        ["payload", "encode", "--format", "csv", "--in", wav, "--out", tmp / "o.wav",
         "--bits", "ff", "--n-bits", 8],
        "argument --format: invalid choice: 'csv' (choose from 'pcm16', 'float32')"),
    "encode-bad-hex": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--out", tmp / "o.wav", "--bits", "a5z", "--n-bits", 8],
        "'a5z' is not a hex string"),
    "encode-more-bits-than-hex": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--out", tmp / "o.wav", "--bits", "a5", "--n-bits", 9],
        "cannot take 9 of the 8 bits the hex string holds"),
    "decode-without-n-bits": lambda tmp, wav: (
        ["payload", "decode", "--in", wav], "the following arguments are required: --n-bits"),
    "decode-negative-n-bits": lambda tmp, wav: (
        ["payload", "decode", "--in", wav, "--n-bits", -1], "argument --n-bits: must be at least 0, got -1"),
    "decode-window-below-four-lags": lambda tmp, wav: (
        ["payload", "decode", "--in", wav, "--n-bits", 8, "--window", 100], "window must be >= 4x the larger lag"),
    "encode-equal-lags": lambda tmp, wav: (
        ["payload", "encode", "--in", wav, "--out", tmp / "o.wav", "--bits", "ff", "--n-bits", 8,
         "--delta0", 50, "--delta1", 50],
        "payload lags must differ"),
}


def _read_that_must_not_run(path):
    raise AssertionError(f"payload read {path} before checking its arguments")


@pytest.mark.parametrize("case", sorted(PAYLOAD_ARGUMENT_ERRORS))
def test_payload_checks_its_arguments_before_reading_the_input(tmp_path, carrier_wav, capsys,
                                                               monkeypatch, case):
    monkeypatch.setattr("echotag.cli.load_audio", _read_that_must_not_run)
    argv, message = PAYLOAD_ARGUMENT_ERRORS[case](tmp_path, carrier_wav)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"echotag: error: {message}"]
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["carrier.wav"]


@pytest.mark.parametrize("action", ["encode", "decode"])
def test_payload_reads_its_input_once_its_arguments_pass(tmp_path, carrier_wav, monkeypatch, action):
    monkeypatch.setattr("echotag.cli.load_audio", _read_that_must_not_run)
    encode_only = ["--out", tmp_path / "o.wav", "--bits", "ff"] if action == "encode" else []
    with pytest.raises(AssertionError, match="before checking its arguments"):
        run_cli("payload", action, "--in", carrier_wav, *encode_only, "--n-bits", 8)


def eval_config(tmp_path, keyfile, **overrides):
    """An evaluate config over one 6 s clip, with `overrides` applied; its path."""
    corpus_dir = tmp_path / "corpus"
    os.makedirs(corpus_dir, exist_ok=True)
    save_audio(noise_clip(400, seconds=6.0, scale=1.0), corpus_dir / "c0.wav",
               format="float32")
    config = {
        "version": 1,
        "seed": 0,
        "corpus": str(corpus_dir / "*.wav"),
        "key_file": str(keyfile),
        "key": "echo75",
        "durations": [5.0],
        "segments_per_clip": 1,
        "include_clean": False,
        "output_dir": str(tmp_path / "results"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestEvaluate:
    def test_minimal_config_single_row(self, tmp_path, keyfile, capsys):
        config = eval_config(tmp_path, keyfile)
        assert run_cli("evaluate", "--config", config) == 0
        lines = (tmp_path / "results" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + exactly one cell
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert summary["duration_sweep"]["median_z_embedded"]["5.0"] > 5.0

    def test_outputs_deterministic(self, tmp_path, keyfile, capsys):
        config_a = eval_config(tmp_path, keyfile, output_dir=str(tmp_path / "ra"))
        run_cli("evaluate", "--config", config_a)
        config_b = eval_config(tmp_path, keyfile, output_dir=str(tmp_path / "rb"))
        run_cli("evaluate", "--config", config_b)
        assert (tmp_path / "ra" / "results.csv").read_bytes() == \
               (tmp_path / "rb" / "results.csv").read_bytes()
        assert (tmp_path / "ra" / "summary.json").read_bytes() == \
               (tmp_path / "rb" / "summary.json").read_bytes()

    def test_malformed_config_lists_every_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "version": 7,
            "corpus": "",
            "key_file": "missing.json",
            "key": "nope",
            "durations": [],
            "segments_per_clip": 0,
            "output_dir": str(tmp_path / "r"),
        }))
        assert run_cli("evaluate", "--config", path) == 1
        err = capsys.readouterr().err
        assert "version" in err
        assert "durations" in err
        assert "segments_per_clip" in err
        assert not (tmp_path / "r").exists()  # no partial outputs

    def test_band_must_start_at_lag_one(self, tmp_path, keyfile, capsys):
        for band in ([0, 125], 5, [25.5, 125]):  # not a list, and not integers, fail the same way
            config = eval_config(tmp_path, keyfile, band=band)
            assert run_cli("evaluate", "--config", config) == 1
            assert "1 <= a < b" in capsys.readouterr().err
            assert not (tmp_path / "results").exists()

    def test_negative_seed_rejected(self, tmp_path, keyfile, capsys):
        config = eval_config(tmp_path, keyfile, seed=-1)
        assert run_cli("evaluate", "--config", config) == 1
        assert "'seed' must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_malformed_channels_rejected(self, tmp_path, keyfile, capsys):
        for channel, expected in (
            ({"kind": "additive_noise", "seed": "x"}, "'seed' must be a non-negative integer, got 'x'"),
            ({"kind": "additive_noise", "seed": -5}, "'seed' must be a non-negative integer, got -5"),
            ({"kind": "additive_noise", "factor": 0.9}, "kind 'additive_noise' does not read 'factor'"),
            ({"kind": "composite", "stages": [{"kind": "random_resample", "high": "2"}]},
             "stage 0: 'high' must be a number from 0.5 to 2, got '2'"),
            ({"kind": "attenuate_echo", "ratio": 3}, "'ratio' must be a number in (0, 1], got 3"),
            ({"kind": ["additive_noise"]}, "'kind' must be one of identity, attenuate_echo"),
            # random_resample with probability 1 and low = high = factor is the same shift
            ({"kind": "resample_factor", "factor": 2}, "kind 'resample_factor' does not read 'factor'; "
                                                       "'kind' must be one of identity, attenuate_echo, "
                                                       "additive_noise, random_resample, composite, "
                                                       "got 'resample_factor'"),
        ):
            config = eval_config(tmp_path, keyfile, channel=channel)
            assert run_cli("evaluate", "--config", config) == 1
            err = capsys.readouterr().err
            assert "invalid evaluate config" in err
            assert f"channel: {expected}" in err
            assert not (tmp_path / "results").exists()

    def test_malformed_key_entries_listed(self, tmp_path, keyfile, capsys):
        bad = tmp_path / "bad_keys.json"
        bad.write_text(json.dumps({"version": 1, "keys": {
            "echo75": {"type": "single", "delta": "75", "alpha": 0.4},
            "pn": {"type": "spread", "alpha": 0.01, "delta": 75, "length": 8, "bits": 5},
        }}))
        config = eval_config(tmp_path, keyfile, key_file=str(bad))
        assert run_cli("evaluate", "--config", config) == 1
        err = capsys.readouterr().err
        assert "key_file: key 'echo75': 'delta' must be a number, got '75'" in err
        assert "key_file: key 'pn': 'bits' must be a hex string, got 5" in err
        assert not (tmp_path / "results").exists()

    def test_empty_key_map_reported(self, tmp_path, keyfile, capsys):
        empty = tmp_path / "empty_keys.json"
        empty.write_text(json.dumps({"version": 1, "keys": {}}))
        config = eval_config(tmp_path, keyfile, key_file=str(empty))
        assert run_cli("evaluate", "--config", config) == 1
        assert "key 'echo75' not found in key file" in capsys.readouterr().err

    def test_clip_shorter_than_a_segment_rejected(self, tmp_path, keyfile, capsys):
        short = tmp_path / "short"
        os.makedirs(short)
        save_audio(noise_clip(402, seconds=2.0, scale=1.0), short / "c.wav", format="float32")
        config = eval_config(tmp_path, keyfile, corpus=str(short / "*.wav"), durations=[5])
        assert run_cli("evaluate", "--config", config) == 1
        err = capsys.readouterr().err
        assert f"corpus clip {str(short / 'c.wav')!r} lasts 2.00s, shorter than the 5s" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("samples, durations, refused", [
        (88200, [2.00001], False),  # cut as round(2.00001 * 44100) = 88,200 samples
        (88199, [2.0], True),
    ])
    def test_clip_length_checked_in_samples(self, tmp_path, keyfile, samples, durations, refused):
        exact = tmp_path / "exact"
        os.makedirs(exact)
        save_audio(noise_clip(403, seconds=samples / SR, scale=1.0), exact / "c.wav", format="float32")
        config = eval_config(tmp_path, keyfile, corpus=str(exact / "*.wav"), durations=durations)
        if refused:
            with pytest.raises(ConfigError, match="lasts 2.00s, shorter than the 2.0s segments"):
                load_eval_config(config)
        else:
            assert len(load_eval_config(config).corpus[0][1]) == samples

    def test_seconds_too_large_to_count_in_samples_refused(self, tmp_path, keyfile):
        config = eval_config(tmp_path, keyfile, key="pn0", durations=[1e300], flips=[0],
                             bitflip_duration=4.076401666354458e+303)
        with pytest.raises(ConfigError) as info:
            load_eval_config(config)
        assert info.value.problems == [
            "'durations' must be a non-empty list of positive seconds, at most 4294967296, got [1e+300]",
            "'bitflip_duration' must be positive seconds, at most 4294967296, got 4.076401666354458e+303"]

    def test_corpus_file_that_is_not_audio_rejected(self, tmp_path, keyfile, capsys):
        text = tmp_path / "text"
        os.makedirs(text)
        (text / "c.wav").write_text("not audio")
        config = eval_config(tmp_path, keyfile, corpus=str(text / "*.wav"))
        assert run_cli("evaluate", "--config", config) == 1
        err = capsys.readouterr().err
        assert "invalid evaluate config" in err and err.count(str(text / "c.wav")) == 1
        assert not (tmp_path / "results").exists()

    def test_spread_key_with_flips(self, tmp_path, keyfile, capsys):
        corpus_dir = tmp_path / "corpus"
        os.makedirs(corpus_dir, exist_ok=True)
        save_audio(noise_clip(401, seconds=6.0, scale=1.0), corpus_dir / "c0.wav",
                   format="float32")
        config = eval_config(
            tmp_path, keyfile,
            key="pn0", flips=[0, 512], bitflip_duration=5.0, durations=[5.0],
        )
        assert run_cli("evaluate", "--config", config) == 0
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        aurocs = summary["bitflip_curve"]["auroc"]
        assert aurocs[0] == pytest.approx(0.5, abs=1e-9)
        assert summary["bitflip_curve"]["clean_auroc"] >= 0.9

    @pytest.mark.parametrize("key, problem", [
        ("echo75", "'flips' requires a spread key"),
        ("pn_lag2", "'flips' needs a spread key delta >= 3, got 2"),
    ])
    def test_flips_refused_before_any_work(self, tmp_path, capsys, monkeypatch, key, problem):
        keyfile = tmp_path / "flip_keys.json"
        save_key_file({"echo75": EchoKey(75, 0.4),
                       "pn_lag2": SpreadKey(generate_pattern(256, 11), delta=2)}, keyfile)
        monkeypatch.setattr("echotag.evalrun.run_duration_sweep", _work_that_must_not_run)
        config = eval_config(tmp_path, keyfile, key=key, flips=[0, 8], bitflip_duration=5.0)
        assert run_cli("evaluate", "--config", config) == 1
        assert f"  - {problem}\n" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("overrides, problem", [
        ({"key": "pn0", "durations": [1, 0.01]},
         "durations: a 0.01s segment holds 441 samples at 44100 Hz; key 'pn0' needs at least 1101"),
        ({"durations": [1, 0.004]},
         "durations: a 0.004s segment holds 176 samples at 44100 Hz; key 'echo75' needs at least 251"),
        ({"key": "pn0", "flips": [0, 8], "bitflip_duration": 0.01},
         "bitflip_duration: a 0.01s segment holds 441 samples at 44100 Hz; key 'pn0' needs at least 1101"),
        ({"durations": [0.006], "channel": {"kind": "random_resample", "probability": 1, "low": 2, "high": 2}},
         "durations: a 0.006s segment holds 265 samples at 44100 Hz, 132 after the channel; "
         "key 'echo75' needs at least 251"),
        ({"durations": [0.006],
          "channel": {"kind": "random_resample", "probability": 1, "low": 1.9, "high": 2}},
         "durations: a 0.006s segment holds 265 samples at 44100 Hz, 132 after the channel; "
         "key 'echo75' needs at least 251"),
        # a channel that lengthens the segment cannot let a too-short cut pass
        ({"durations": [1, 0.004],
          "channel": {"kind": "random_resample", "probability": 1, "low": 0.5, "high": 0.5}},
         "durations: a 0.004s segment holds 176 samples at 44100 Hz; key 'echo75' needs at least 251"),
        ({"key": "echo150"}, "key 'echo150': echo lag 150 outside the scan band [25, 125]"),
        ({"key": "pn_short"}, "key 'pn_short': spread band [3, L + delta] = [3, 3] must reach lag 11"),
    ])
    def test_segment_too_short_for_the_key_refused_before_any_work(
            self, tmp_path, keyfile, capsys, monkeypatch, overrides, problem):
        keys = load_key_file(keyfile)
        keys.update(echo150=EchoKey(150), pn_short=SpreadKey(np.array([1, 0]), delta=1))
        save_key_file(keys, keyfile)
        monkeypatch.setattr("echotag.evalrun.run_duration_sweep", _work_that_must_not_run)
        config = eval_config(tmp_path, keyfile, **overrides)
        assert run_cli("evaluate", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.count("echotag: error: invalid evaluate config") == 1
        assert f"  - {problem}" in err
        assert err.count("  - ") == 1
        assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--config"],
    ["tag-dataset", "--manifest"],
    ["detect", "--in", "unused.wav", "--key-file"],
])
def test_json_file_that_is_not_an_object_fails_cleanly(tmp_path, capsys, argv):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert run_cli(*argv, path) == 1  # an error message, not an uncaught exception
    assert "must hold a JSON object" in capsys.readouterr().err


# argv of a command whose output cannot be written, from (tmp_path, keyfile, carrier_wav)
UNWRITABLE_OUTPUTS = {
    "evaluate-output-dir-under-a-file": lambda tmp, keyfile, wav: [
        "evaluate", "--config",
        eval_config(tmp, keyfile, output_dir=str(tmp / "carrier.wav" / "results"))],
    "embed-into-missing-dir": lambda tmp, keyfile, wav: [
        "embed", "--in", wav, "--out", tmp / "missing" / "o.wav",
        "--key-file", keyfile, "--key", "echo75"],
    "gen-patterns-into-missing-dir": lambda tmp, keyfile, wav: [
        "gen-patterns", "--count", 4, "--length", 512, "--out", tmp / "missing" / "ps.json"],
    "payload-encode-into-missing-dir": lambda tmp, keyfile, wav: [
        "payload", "encode", "--in", wav, "--out", tmp / "missing" / "o.wav",
        "--bits", "ff", "--n-bits", 8],
}


# the work a case's command must not start before it finds its output unwritable
WORK_BEFORE_OUTPUT = {
    "embed-into-missing-dir": "echotag.cli.embed",
    "evaluate-output-dir-under-a-file": "echotag.evalrun.run_duration_sweep",
    "gen-patterns-into-missing-dir": "echotag.cli.generate_pattern_set",
    "payload-encode-into-missing-dir": "echotag.cli.encode_payload",
}


def _work_that_must_not_run(*args, **kwargs):
    raise AssertionError("the command did its work before checking its output")


def test_every_readme_command_line_parses():
    """README's examples keep the spellings the parser takes: each flag after the command that reads it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("echotag ")]
    assert len(lines) >= 8
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])  # a CommandError names the bad flag
        assert args.seed is None or args.command == "gen-patterns", line


def _write_json(path, document):
    path.write_text(json.dumps(document))
    return path


# argv of each command with every flag it requires, from (tmp_path, keyfile, carrier_wav)
COMMAND_ARGV = {
    "gen-patterns": lambda tmp, keyfile, wav: ["gen-patterns", "--count", 2, "--length", 64,
                                               "--out", tmp / "ps.json"],
    "embed": lambda tmp, keyfile, wav: ["embed", "--in", wav, "--out", tmp / "o.wav",
                                        "--key-file", keyfile, "--key", "echo75"],
    "tag-dataset": lambda tmp, keyfile, wav: ["tag-dataset", "--manifest", _write_json(
        tmp / "manifest.json", {"version": 1, "key_file": str(keyfile), "base_output_dir": str(tmp / "out"),
                                "entries": [{"input": str(wav), "key": "echo75"}]})],
    "detect": lambda tmp, keyfile, wav: ["detect", "--in", wav, "--key-file", keyfile, "--key", "echo75"],
    "payload encode": lambda tmp, keyfile, wav: ["payload", "encode", "--in", wav, "--out", tmp / "p.wav",
                                                 "--bits", "ff", "--n-bits", 8],
    "payload decode": lambda tmp, keyfile, wav: ["payload", "decode", "--in", wav, "--n-bits", 8],
    "evaluate": lambda tmp, keyfile, wav: ["evaluate", "--config", eval_config(tmp, keyfile)],
}
# the first step of each command's work, each patched to fail
COMMAND_WORK = ("echotag.cli.generate_pattern_set", "echotag.cli.load_key_file", "echotag.cli.load_manifest",
                "echotag.cli.load_audio", "echotag.cli.load_eval_config")


def _without(argv, flag):
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


# case -> (command, flags given before it, flags given after its argv, the start of the one error line):
# each flag on a command that does not read it, and each command without one flag it requires
REFUSED_ARGUMENTS = {
    **{f"seed-{command}": (command, ["--seed", 7], [],
                           f"--seed is read by gen-patterns only, not by {command.split()[0]}")
       for command in COMMAND_ARGV if command != "gen-patterns"},
    **{f"{flag[2:]}-{command}": (command, [], [flag, value], f"unrecognized arguments: {flag} {value}")
       for flag, value, commands in (
           ("--jobs", 2, [c for c in COMMAND_ARGV if c != "tag-dataset"]),
           ("--sample-rate", 48000, ["gen-patterns", "payload encode", "payload decode", "evaluate"]),
           ("--out", "x.wav", ["payload decode"]),
           ("--bits", "ff", ["payload decode"]),
           ("--format", "pcm16", ["gen-patterns", "tag-dataset"]),
           ("--format", "csv", ["payload decode"]),
           ("--format", "json", ["evaluate"]))
       for command in commands},
    # the flag that --sample-rate native replaced
    **{f"no-resample-{command}": (command, [], ["--no-resample"], "unrecognized arguments: --no-resample")
       for command in ("embed", "detect")},
    # the spellings from before each flag moved onto its command
    **{f"moved-{flag[2:]}-{command}": (command, [flag, value], [],
                                       f"argument {flag}: goes after the command name, not before it")
       for flag, value, command in (("--format", "csv", "detect"), ("--jobs", 4, "tag-dataset"),
                                    ("--sample-rate", 48000, "embed"))},
    **{f"without-{flag[2:]}-{command}": (command, [], [], f"the following arguments are required: {flag}")
       for command, flag in (("gen-patterns", "--count"), ("embed", "--key-file"), ("tag-dataset", "--manifest"),
                             ("detect", "--key-file"), ("payload encode", "--bits"),
                             ("payload decode", "--n-bits"), ("evaluate", "--config"))},
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGUMENTS))
def test_an_argument_error_is_one_line_before_any_work(tmp_path, keyfile, carrier_wav, capsys, monkeypatch,
                                                       case):
    command, before_command, after_command, message = REFUSED_ARGUMENTS[case]
    argv = COMMAND_ARGV[command](tmp_path, keyfile, carrier_wav)
    if case.startswith("without-"):
        argv = _without(argv, message.split()[-1])  # the flag the message names
    for work in COMMAND_WORK:
        monkeypatch.setattr(work, _work_that_must_not_run)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*before_command, *argv, *after_command) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"echotag: error: {message}")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_fails_with_one_message(tmp_path, keyfile, carrier_wav, capsys,
                                                  monkeypatch, case):
    if case in WORK_BEFORE_OUTPUT:
        monkeypatch.setattr(WORK_BEFORE_OUTPUT[case], _work_that_must_not_run)
    assert run_cli(*UNWRITABLE_OUTPUTS[case](tmp_path, keyfile, carrier_wav)) == 1
    err = capsys.readouterr().err
    assert err.count("echotag: error:") == 1
    assert "Traceback" not in err
    if case.endswith("-into-missing-dir"):
        assert f"--out directory {str(tmp_path / 'missing')!r} does not exist" in err


@pytest.mark.parametrize("verbose", [False, True])
def test_verbose_logs_the_traceback(tmp_path, keyfile, verbose):
    missing = tmp_path / "missing.wav"
    proc = run_cli_process(*(["-v"] if verbose else []),
                           "detect", "--in", missing, "--key-file", keyfile, "--key", "echo75")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("echotag: error:")] == [lines[-1]]
    assert str(missing) in lines[-1]
    assert ("Traceback" in proc.stderr) == verbose


def test_verbose_holds_for_its_own_call(tmp_path, keyfile, caplog):
    argv = ["detect", "--in", tmp_path / "missing.wav", "--key-file", keyfile, "--key", "echo75"]
    traced = []
    for verbose in (False, True, False):
        caplog.clear()
        assert run_cli(*(["-v"] if verbose else []), *argv) == 1
        traced.append([r.levelno for r in caplog.records if r.exc_info])
    assert traced == [[], [logging.DEBUG], []]


def test_a_second_call_reuses_the_parser_and_runs_the_handler_bound_now(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    argv = ["evaluate", "--config", tmp_path / "missing.json"]
    assert run_cli(*argv) == 1
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    ran = []
    monkeypatch.setattr("echotag.cli.cmd_evaluate", lambda args: ran.append(args.config) or 7)
    assert run_cli(*argv) == 7
    assert ran == [str(tmp_path / "missing.json")]
    assert built == []


# run in one fresh interpreter: imports echotag.cli, runs each (step, argv) through main
# and prints, per step, the scipy modules loaded so far
STARTUP_SCRIPT = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from echotag.cli import build_parser, main
loaded = {"import": scipy_modules()}
for step, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded[step] = scipy_modules() if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""


def test_commands_import_only_what_they_run(tmp_path, keyfile, carrier_wav):
    """A module once imported stays imported, so the steps run from the fewest scipy modules up."""
    steps = [
        ("gen-patterns", ["--seed", "2", "gen-patterns", "--count", "4", "--length", "512",
                          "--out", str(tmp_path / "ps.json")]),
        ("--help", ["--help"]),
        ("detect", ["detect", "--in", str(carrier_wav), "--key-file", str(keyfile), "--key", "echo75"]),
        ("spread detect", ["detect", "--in", str(carrier_wav), "--key-file", str(keyfile), "--key", "pn0"]),
        ("spread embed", ["embed", "--in", str(carrier_wav), "--out", str(tmp_path / "s.wav"),
                          "--key-file", str(keyfile), "--key", "pn0"]),
        ("spread tag-dataset", ["tag-dataset", "--manifest", str(_write_json(tmp_path / "manifest.json", {
            "version": 1, "key_file": str(keyfile), "base_output_dir": str(tmp_path / "tagged"),
            "entries": [{"input": str(carrier_wav), "key": "pn0"}]}))]),
        ("payload encode", ["payload", "encode", "--in", str(carrier_wav), "--out", str(tmp_path / "p.wav"),
                            "--bits", "a5", "--n-bits", "8"]),
        ("payload decode", ["payload", "decode", "--in", str(tmp_path / "p.wav"), "--n-bits", "8"]),
    ]
    src = os.path.dirname(os.path.dirname(echotag.__file__))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, json.dumps(steps)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert list(loaded) == ["import", *(step for step, _ in steps)]
    for step in ("import", "gen-patterns", "--help"):
        assert loaded[step] == [], step
    for step in ("detect", "spread detect", "spread embed", "spread tag-dataset",
                 "payload encode", "payload decode"):
        assert isinstance(loaded[step], list), (step, loaded[step])
        assert not [m for m in loaded[step] if m == "scipy.signal" or m.startswith("scipy.signal.")], step
    assert "scipy.io.wavfile" in loaded["detect"]


# the commands that read --sample-rate
SAMPLE_RATE_COMMANDS = {command: COMMAND_ARGV[command] for command in ("detect", "embed", "tag-dataset")}


@pytest.mark.parametrize("rate", [0, -44100])
@pytest.mark.parametrize("command", sorted(SAMPLE_RATE_COMMANDS))
def test_sample_rate_must_be_positive(tmp_path, keyfile, carrier_wav, capsys, command, rate):
    argv = SAMPLE_RATE_COMMANDS[command](tmp_path, keyfile, carrier_wav)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv, "--sample-rate", rate) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"echotag: error: argument --sample-rate: must be at least 1, got {rate}"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", sorted(SAMPLE_RATE_COMMANDS))
def test_sample_rate_is_an_integer_or_native(tmp_path, keyfile, carrier_wav, capsys, command):
    argv = SAMPLE_RATE_COMMANDS[command](tmp_path, keyfile, carrier_wav)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv, "--sample-rate", "natve") == 1
    assert capsys.readouterr().err.splitlines() == [
        "echotag: error: argument --sample-rate: must be a positive integer or 'native', got 'natve'"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["detect", "embed"])
def test_sample_rate_the_polyphase_cap_cannot_reach_is_refused(tmp_path, keyfile, carrier_wav, capsys, command):
    argv = SAMPLE_RATE_COMMANDS[command](tmp_path, keyfile, carrier_wav)
    assert run_cli(*argv, "--sample-rate", 5) == 1
    assert capsys.readouterr().err.splitlines() == [
        "echotag: error: cannot resample 44100 Hz to 5 Hz: the polyphase cap of 4096 rounds their ratio to 0"]
    assert not (tmp_path / "o.wav").exists()
