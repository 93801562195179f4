"""evaluate's outputs against committed golden files (tests/golden/).

Two small configs run in-process on seeded noise clips: a spread key with a
bit-flip curve under additive noise, and a single-echo key through the pitch
composite (random_resample, then additive_noise). Their results.csv and
summary.json are compared with tools/compare_evaluate.py's own comparison:
every field other than a z must match exactly, and every z within Z_BOUND,
which covers the rounding that a change of FFT or BLAS build may bring.

A change that moves evaluate's outputs by design regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists them in CHANGES.md, since they are a check's data.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from echotag import EchoKey, SpreadKey, generate_pattern, save_audio
from echotag.cli import main
from echotag.keyfiles import save_key_file, write_json
from helpers import noise_clip

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_evaluate  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
Z_BOUND = 1e-9
NOISE = {"kind": "additive_noise", "snr_db": 20.0, "seed": 3}
PITCH = {"kind": "random_resample", "probability": 0.5, "low": 0.97, "high": 1.03, "seed": 4}
CONFIGS = {
    "spread-flips-noise": {"key": "pn", "channel": NOISE, "flips": [0, 64, 128], "bitflip_duration": 1},
    "single-pitch-noise": {"key": "echo75", "channel": {"kind": "composite", "stages": [PITCH, NOISE],
                                                        "seed": 4}},
}
OUTPUTS = ("results.csv", "summary.json")


def run_golden_config(name, work_dir) -> tuple:
    """evaluate's (results.csv, summary.json) bytes for one golden config, run in work_dir."""
    work = Path(work_dir)
    corpus = work / "corpus"
    corpus.mkdir()
    for index, seconds in enumerate((3.0, 4.0)):
        save_audio(noise_clip((500, index), seconds=seconds, scale=0.3), corpus / f"clip{index}.wav")
    save_key_file({"echo75": EchoKey(75, 0.4),
                   "pn": SpreadKey(generate_pattern(256, 500), alpha=0.05, delta=75)}, work / "keys.json")
    config = {"version": 1, "seed": 7, "corpus": str(corpus / "*.wav"), "key_file": str(work / "keys.json"),
              "durations": [1, 2], "segments_per_clip": 2, "include_clean": True,
              "output_dir": str(work / "results"), **CONFIGS[name]}
    write_json(work / "eval.json", config)
    if main(["evaluate", "--config", str(work / "eval.json")]) != 0:
        raise RuntimeError(f"evaluate failed on golden config {name}")
    return tuple((work / "results" / output).read_bytes() for output in OUTPUTS)


def golden(name) -> tuple:
    return tuple((GOLDEN / name / output).read_bytes() for output in OUTPUTS)


def moved_by_more_than_bound(expected, got) -> list:
    """compare_evaluate's non-z differences, plus the z bound if it was crossed."""
    max_dz, _, problems = compare_evaluate.compare(expected, got)
    return problems + ([f"max |dz| {max_dz:.3g} > {Z_BOUND:g}"] if max_dz > Z_BOUND else [])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_evaluate_matches_its_golden_files(tmp_path, name):
    assert moved_by_more_than_bound(golden(name), run_golden_config(name, tmp_path)) == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_z_moved_by_1e_6_fails(name):
    csv_bytes, summary = golden(name)
    lines = csv_bytes.decode("utf-8").split("\r\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("duration_sweep,") and line.split(",")[8])
    fields = lines[row].split(",")
    fields[8] = repr(float(fields[8]) + 1e-6)
    lines[row] = ",".join(fields)
    moved = ("\r\n".join(lines).encode("utf-8"), summary)
    assert moved_by_more_than_bound(golden(name), moved) == ["max |dz| 1e-06 > 1e-09"]


if __name__ == "__main__":
    for config_name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as scratch:
            outputs = run_golden_config(config_name, scratch)
        shutil.rmtree(GOLDEN / config_name, ignore_errors=True)
        os.makedirs(GOLDEN / config_name)
        for output, data in zip(OUTPUTS, outputs):
            (GOLDEN / config_name / output).write_bytes(data)
        print(f"wrote {GOLDEN / config_name}")
