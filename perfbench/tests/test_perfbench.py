"""Checks of the benchmark itself: layer coverage, the tracer, reruns.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout; each workload's inputs are built once and
one real pass of each runs under the tracer.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import echotag  # noqa: E402
from echotag import AudioClip, cli, detect, dsp, harness, payload  # noqa: E402
from echotag.cli import main  # noqa: E402
from make_keys import make_keys  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import build_inputs, run_pass  # noqa: E402

# the package re-exports the function `embed` under the submodule's name
embed = importlib.import_module("echotag.embed")

# (layers every pass must call, layers the workload must bypass)
COVERAGE = {
    "eval-spread": (
        ["dsp.cross_correlate", "dsp.real_cepstrum", "dsp.convolve", "embed.embed_spread",
         "harness.apply_channel", "harness.run_duration_sweep", "harness.run_bitflip_curve",
         "evalrun.run_evaluation", "detect.detect_spread", "detect.zscore_profile",
         "audio.load_audio", "audio.save_audio", "keyfiles.load_key_file",
         "payload.encode_payload", "payload.decode_payload"],
        ["audio.resample", "detect.detect_single_echo"],
    ),
    "eval-pitch": (
        ["audio.resample", "dsp.real_cepstrum", "embed.embed_single_echo",
         "harness.apply_channel", "harness.run_duration_sweep", "evalrun.run_evaluation",
         "detect.detect_single_echo", "detect.zscore_profile",
         "audio.load_audio", "audio.save_audio", "keyfiles.load_key_file",
         "payload.encode_payload", "payload.decode_payload"],
        ["dsp.cross_correlate", "dsp.convolve", "embed.embed_spread", "detect.detect_spread",
         "harness.run_bitflip_curve"],
    ),
}


@pytest.fixture(scope="module", params=sorted(COVERAGE))
def workload_inputs(request, tmp_path_factory):
    work_dir = tmp_path_factory.mktemp(request.param)
    key_file = make_keys(str(work_dir), 3)
    return request.param, build_inputs(request.param, 3, str(work_dir), key_file)


def test_pass_covers_predicted_layers_and_bypasses(workload_inputs):
    workload, inputs = workload_inputs
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(main, inputs)
    finally:
        tracer.uninstall()
    assert result.problems == []
    assert result.failed == 0
    called, bypassed = COVERAGE[workload]
    calls = {layer: s["calls"] for layer, s in tracer.stats.items()}
    assert [layer for layer in called if calls.get(layer, 0) < 1] == []
    assert [layer for layer in bypassed if calls.get(layer, 0) != 0] == []


def test_tracer_rebinds_every_alias_and_restores_them():
    original = dsp.real_cepstrum
    tracer = Tracer()
    tracer.install()
    try:
        for module in (dsp, detect, harness, payload, echotag):
            assert module.real_cepstrum.__traced__ is original
        assert embed.convolve.__traced__ is dsp.convolve.__traced__
        assert cli.embed.__traced__ is embed.embed.__traced__
        assert cli.detect_spread.__traced__ is detect.detect_spread.__traced__
    finally:
        tracer.uninstall()
    for module in (dsp, detect, harness, payload, echotag):
        assert module.real_cepstrum is original
    assert not hasattr(cli.embed, "__traced__")


def test_self_time_excludes_child_spans():
    clip = AudioClip(np.random.default_rng(0).standard_normal(44100), 44100)
    tracer = Tracer()
    tracer.install()
    try:
        detect.detect_single_echo(clip, key_lag=75)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    parent = stats["detect.detect_single_echo"]
    children = stats["dsp.real_cepstrum"]["busy_ms"] + stats["detect.zscore_profile"]["busy_ms"]
    assert parent["self_ms"] == pytest.approx(parent["busy_ms"] - children, abs=1e-6)
    assert stats["dsp.real_cepstrum"]["self_ms"] == stats["dsp.real_cepstrum"]["busy_ms"]
    assert stats["dsp.real_cepstrum"]["points"] == 44100


def test_evaluate_rerun_writes_identical_files(tmp_path):
    key_file = make_keys(str(tmp_path), 4)
    inputs = build_inputs("eval-spread", 4, str(tmp_path), key_file)
    config_path = inputs.main_argv[-1]
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    outputs = []
    for name in ("first", "second"):
        config["output_dir"] = name
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert main(["evaluate", "--config", config_path]) == 0
        outputs.append([(tmp_path / name / f).read_bytes() for f in ("results.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-spread", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
