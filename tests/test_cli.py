import json
import os

import numpy as np
import pytest

from echotag import EchoKey, SpreadKey, generate_pattern, load_audio, save_audio, save_key_file
from echotag.cli import main
from echotag.keyfiles import bits_to_hex, load_pattern_set
from helpers import SR, noise_clip


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "keys.json"
    save_key_file({
        "echo75": EchoKey(75, 0.4),
        "echo50": EchoKey(50, 0.4),
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

    def test_count_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "ps.json"
        assert run_cli("gen-patterns", "--count", 1, "--out", out) == 1
        assert not out.exists()
        assert "at least 2" in capsys.readouterr().err


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
        assert run_cli("--format", "csv", "detect", "--in", tagged,
                       "--key-file", keyfile, "--key", "echo50") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[:2] == ["clip_id", "key_id"]
        assert len(lines) == 2

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

    def test_band_from_quefrency_zero_rejected(self, keyfile, carrier_wav, capsys):
        assert run_cli("detect", "--in", carrier_wav, "--key-file", keyfile,
                       "--key", "echo75", "--band", 0, 125) == 1
        assert "lag 1" in capsys.readouterr().err

    def test_clean_file_detection_still_exits_zero(self, keyfile, carrier_wav, capsys):
        # detection is a measurement, not a pass/fail gate
        assert run_cli("detect", "--in", carrier_wav,
                       "--key-file", keyfile, "--key", "echo75") == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["z_at_key"]) < 5.0

    def test_resample_canonicalizes(self, tmp_path, keyfile, capsys):
        rng = np.random.default_rng(7)
        from echotag import AudioClip
        hi = tmp_path / "hi.wav"
        save_audio(AudioClip(rng.standard_normal(48000 * 5), 48000), hi, format="float32")
        tagged = tmp_path / "tagged.wav"
        assert run_cli("embed", "--in", hi, "--out", tagged,
                       "--key-file", keyfile, "--key", "echo75") == 0
        assert load_audio(tagged).sample_rate == 44100
        capsys.readouterr()
        assert run_cli("detect", "--in", tagged, "--key-file", keyfile, "--key", "echo75") == 0
        assert json.loads(capsys.readouterr().out)["argmax_lag"] == 75


class TestTagDataset:
    def _write_manifest(self, tmp_path, keyfile, entries, **extra):
        manifest = {
            "version": 1,
            "key_file": str(keyfile),
            "base_input_dir": str(tmp_path / "in"),
            "base_output_dir": str(tmp_path / "out"),
            "entries": entries,
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
        run_cli("--jobs", 4, "tag-dataset", "--manifest", manifest2)
        capsys.readouterr()
        for name in ("a.wav", "b.wav", "c.wav", "d.wav"):
            serial = (tmp_path / "out" / "serial" / name).read_bytes()
            parallel = (tmp_path / "out" / "parallel" / name).read_bytes()
            assert serial == parallel

    def test_output_collision_rejected_before_writes(self, tmp_path, keyfile, capsys):
        self._make_corpus(tmp_path, ["a.wav"])
        manifest = self._write_manifest(tmp_path, keyfile, [
            {"input": "a.wav", "key": "echo50"},
            {"input": "a.wav", "key": "echo75"},
        ])
        assert run_cli("tag-dataset", "--manifest", manifest) == 1
        assert "collision" in capsys.readouterr().err
        assert not (tmp_path / "out" / "a.wav").exists()

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
        from echotag.keyfiles import hex_to_bits
        errors = int(np.sum(hex_to_bits(decoded, 40) != bits))
        assert errors <= 2

    def test_capacity_exceeded(self, tmp_path, capsys):
        carrier = tmp_path / "c.wav"
        save_audio(noise_clip(301, seconds=0.1), carrier, format="float32")
        assert run_cli("payload", "encode", "--in", carrier, "--out", tmp_path / "o.wav",
                       "--bits", "ff", "--n-bits", 8) == 1
        assert "capacity" in capsys.readouterr().err


class TestEvaluate:
    def _config(self, tmp_path, keyfile, **overrides):
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

    def test_minimal_config_single_row(self, tmp_path, keyfile, capsys):
        config = self._config(tmp_path, keyfile)
        assert run_cli("evaluate", "--config", config) == 0
        lines = (tmp_path / "results" / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + exactly one cell
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        assert summary["duration_sweep"]["median_z_embedded"]["5.0"] > 5.0

    def test_outputs_deterministic(self, tmp_path, keyfile, capsys):
        config_a = self._config(tmp_path, keyfile, output_dir=str(tmp_path / "ra"))
        run_cli("evaluate", "--config", config_a)
        config_b = self._config(tmp_path, keyfile, output_dir=str(tmp_path / "rb"))
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
        config = self._config(tmp_path, keyfile, band=[0, 125])
        assert run_cli("evaluate", "--config", config) == 1
        assert "1 <= a < b" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_empty_key_map_reported(self, tmp_path, keyfile, capsys):
        empty = tmp_path / "empty_keys.json"
        empty.write_text(json.dumps({"version": 1, "keys": {}}))
        config = self._config(tmp_path, keyfile, key_file=str(empty))
        assert run_cli("evaluate", "--config", config) == 1
        assert "key 'echo75' not found in key file" in capsys.readouterr().err

    def test_spread_key_with_flips(self, tmp_path, keyfile, capsys):
        corpus_dir = tmp_path / "corpus"
        os.makedirs(corpus_dir, exist_ok=True)
        save_audio(noise_clip(401, seconds=6.0, scale=1.0), corpus_dir / "c0.wav",
                   format="float32")
        config = self._config(
            tmp_path, keyfile,
            key="pn0", flips=[0, 512], bitflip_duration=5.0, durations=[5.0],
        )
        assert run_cli("evaluate", "--config", config) == 0
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())
        aurocs = summary["bitflip_curve"]["auroc"]
        assert aurocs[0] == pytest.approx(0.5, abs=1e-9)
        assert summary["bitflip_curve"]["clean_auroc"] >= 0.9


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
