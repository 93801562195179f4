"""Seeded inputs and one measured pass for each benchmark workload.

A pass is what a user of one workload does, through `echotag.cli.main`:

* a full-capacity `payload encode`;
* a timed `payload decode`, the main job (`evaluate`, timed as a whole), and
  a second timed `payload decode`;
* the read path: one `detect` per file, each call timed.

The benchmark writes every input itself, from the seed, with numpy and
scipy.io.wavfile only; echotag sees nothing but files. Each pass checks what
the program wrote.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.io.wavfile

from make_keys import SPREAD_DELTA

RATE = 44100
PAYLOAD_SECONDS = 60
PAYLOAD_WINDOW = 1024

# Whole-second clips and segments, so every FFT of the spread path has a
# 13-smooth length (44100 = 2^2 3^2 5^2 7^2). The read path's inputs fall into
# clusters of equal cost, laid out so that the median lands among the two 10 s
# clips and the tail (rank n - 11 of n samples) on the 12 s one: a percentile
# that falls between two clusters jumps with timing noise.
EVAL_CLIP_SECONDS = (8, 10, 10, 12)
EVAL_DURATIONS = [2, 4, 8]
EVAL_SEGMENTS = 2
EVAL_FLIPS = [128, 256, 512]
EVAL_BITFLIP_SECONDS = 4
EVAL_SNR_DB = 20.0
# a fixed channel seed draws the same pitch factors for every benchmark seed,
# so the set of (mostly non-smooth) FFT lengths in eval-pitch does not move
# with the seed; the seed still picks the audio and the segment positions
PITCH_CHANNEL_SEED = 1


def music_clip(rng, n: int, rate: int) -> np.ndarray:
    """Seeded music-like signal: decaying harmonic notes, each struck with a
    noise burst, over a broadband bed (a purely tonal signal has spectral
    valleys no recording has, and they swamp the cepstrum)."""
    out = 0.03 * rng.standard_normal(n)
    onset = 0
    while onset < n:
        stop = min(n, onset + int(rate * rng.uniform(0.3, 1.2)))
        t = np.arange(stop - onset) / rate
        f0 = 110.0 * 2.0 ** (rng.integers(0, 36) / 12.0)
        note = np.zeros(t.size)
        for k in range(1, 7):
            if k * f0 < rate / 2:
                note += rng.uniform(0.3, 1.0) / k * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        note *= np.exp(-t / rng.uniform(0.15, 0.6))
        note += 0.5 * rng.standard_normal(t.size) * np.exp(-t * rng.uniform(20, 60))
        out[onset:stop] += note
        onset += int(rate * rng.uniform(0.12, 0.5))
    return 0.5 * out / np.max(np.abs(out))


def _write_float32(path, rate, x):
    scipy.io.wavfile.write(path, rate, x.astype(np.float32))


@dataclass
class Inputs:
    """Everything one workload's passes read, plus what the checks expect."""

    workload: str
    key_file: str
    main_argv: list
    audio_seconds: float
    detects: list  # (path, key name) per detect call
    payload_in: str
    payload_out: str
    payload_hex: str
    payload_bits: int
    results_dir: str
    expected_rows: int


def build_inputs(workload: str, seed: int, work_dir: str, key_file: str) -> Inputs:
    rng = np.random.default_rng([seed, 20241])
    payload_in = os.path.join(work_dir, "payload.wav")
    _write_float32(payload_in, RATE, music_clip(rng, PAYLOAD_SECONDS * RATE, RATE))
    n_bits = PAYLOAD_SECONDS * RATE // PAYLOAD_WINDOW
    bits = rng.integers(0, 2, n_bits)
    padded = np.concatenate([bits, np.zeros(-n_bits % 4, dtype=bits.dtype)])
    payload_hex = "".join(f"{v:x}" for v in padded.reshape(-1, 4) @ [8, 4, 2, 1])
    common = dict(workload=workload, key_file=key_file, payload_in=payload_in,
                  payload_out=os.path.join(work_dir, "payload.coded.wav"),
                  payload_hex=payload_hex, payload_bits=n_bits)
    corpus_dir = os.path.join(work_dir, "corpus")
    os.makedirs(corpus_dir)
    clips = []
    for index, seconds in enumerate(EVAL_CLIP_SECONDS):
        path = os.path.join(corpus_dir, f"clip{index}.wav")
        _write_float32(path, RATE, music_clip(rng, seconds * RATE, RATE))
        clips.append(path)
    noise = {"kind": "additive_noise", "snr_db": EVAL_SNR_DB, "seed": seed}
    config = {"version": 1, "seed": seed, "corpus": "corpus/*.wav", "key_file": common["key_file"],
              "durations": EVAL_DURATIONS, "segments_per_clip": EVAL_SEGMENTS,
              "include_clean": True, "output_dir": "results"}
    if workload == "eval-spread":
        key, wrong = "pn0", "pn1"
        config.update(key=key, channel=noise, flips=EVAL_FLIPS,
                      bitflip_duration=EVAL_BITFLIP_SECONDS)
        bitflip_seconds = len(clips) * EVAL_SEGMENTS * EVAL_BITFLIP_SECONDS * 2
        extra_rows = len(EVAL_FLIPS)
    elif workload == "eval-pitch":
        key, wrong = "echo75", "echo50"
        pitch = {"kind": "random_resample", "probability": 0.5, "low": 0.97, "high": 1.03,
                 "seed": PITCH_CHANNEL_SEED}
        config.update(key=key, channel={"kind": "composite", "stages": [pitch, noise],
                                        "seed": PITCH_CHANNEL_SEED})
        bitflip_seconds = 0
        extra_rows = 0
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config_path = os.path.join(work_dir, "eval.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    cells = len(clips) * len(EVAL_DURATIONS) * EVAL_SEGMENTS
    return Inputs(
        main_argv=["evaluate", "--config", config_path],
        audio_seconds=float(len(clips) * sum(EVAL_DURATIONS) * EVAL_SEGMENTS * 2 + bitflip_seconds),
        detects=[(path, name) for path in clips for name in (key, wrong)],
        results_dir=os.path.join(work_dir, "results"),
        expected_rows=2 * cells + extra_rows,
        **common,
    )


@dataclass
class PassResult:
    main_s: float = 0.0
    detect_ms: list = field(default_factory=list)
    decode_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    hits: list = field(default_factory=list)
    own_z: list = field(default_factory=list)
    other_z: list = field(default_factory=list)
    bit_errors: int = 0
    outputs: bytes = b""


def _call(main, argv, result: PassResult):
    """Run one CLI command in-process; return (stdout, seconds), None on failure."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    elapsed = time.perf_counter() - start
    result.attempted += 1
    if code != 0:
        result.failed += 1
        result.problems.append(f"exit {code}: echotag {' '.join(argv)}")
        return None, elapsed
    return out.getvalue(), elapsed


def run_pass(main, inputs: Inputs) -> PassResult:
    result = PassResult()
    _call(main, ["payload", "encode", "--in", inputs.payload_in, "--out", inputs.payload_out,
                 "--bits", inputs.payload_hex, "--n-bits", str(inputs.payload_bits)], result)
    # the decodes sit on either side of the main job, seconds apart: the
    # host's speed changes over seconds, so adjacent decodes would sample
    # one moment of it
    _decode(main, inputs, result)
    _, result.main_s = _call(main, inputs.main_argv, result)
    _check_evaluation(inputs, result)
    _decode(main, inputs, result)
    for path, key in inputs.detects:
        stdout, seconds = _call(main, ["detect", "--in", path, "--key-file", inputs.key_file,
                                       "--key", key], result)
        result.detect_ms.append(seconds * 1e3)
        if stdout is not None and "z_at_key" not in json.loads(stdout):
            result.problems.append(f"detect {key} on {path} reported no z_at_key")
    return result


def _decode(main, inputs: Inputs, result: PassResult):
    stdout, seconds = _call(main, ["payload", "decode", "--in", inputs.payload_out,
                                   "--n-bits", str(inputs.payload_bits)], result)
    result.decode_s.append(seconds)
    if stdout is None:
        return
    decoded = json.loads(stdout)["bits"]
    if len(decoded) != len(inputs.payload_hex):
        result.problems.append("payload decode returned the wrong number of bits")
    result.bit_errors = sum(bin(int(a, 16) ^ int(b, 16)).count("1")
                            for a, b in zip(decoded, inputs.payload_hex))


def _delta(key_name: str) -> int:
    """Lag of a key written by make_keys: echo<lag> or a spread key."""
    return int(key_name[4:]) if key_name.startswith("echo") else SPREAD_DELTA


def _check_evaluation(inputs: Inputs, result: PassResult):
    results_path = os.path.join(inputs.results_dir, "results.csv")
    summary_path = os.path.join(inputs.results_dir, "summary.json")
    try:
        with open(results_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(summary_path, "rb") as fh:
            summary_bytes = fh.read()
    except OSError as exc:
        result.problems.append(f"evaluate wrote no results: {exc}")
        return
    result.outputs = csv_bytes + b"\0" + summary_bytes
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    if len(rows) != inputs.expected_rows:
        result.problems.append(f"results.csv has {len(rows)} rows, want {inputs.expected_rows}")
    delta = _delta(json.loads(summary_bytes)["key"])
    for row in rows:
        if row["experiment"] != "duration_sweep":
            continue
        if row["condition"] == "embedded":
            result.hits.append(int(row["argmax_lag"]) == delta)
            result.own_z.append(float(row["z_at_key"]))
        else:
            result.other_z.append(float(row["z_at_key"]))
