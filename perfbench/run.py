"""echotag benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload eval-spread --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (it imports echotag from ./src). Workloads:

  eval-spread  `evaluate` with a spread key, additive noise and a bit-flip curve
  eval-pitch   `evaluate` with a single key through random pitch shift + noise

Every pass also runs the read path (`detect` per file) and a full-capacity
payload round trip; see workloads.py. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 untraced and traced passes
alternate and it carries the per-layer metrics and the tracing overhead.
Everything runs in one closed-loop process on one thread. Set-up runs in
fresh interpreters, several times.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the whole load runs on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("eval-spread", "eval-pitch")
SETUP_REPEATS = 5
# detect_tail_ms is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
# the clean payload round trip is not error-free on music (about 1% of the bits
# flip on these clips), so the check bounds its bit error rate; a decoder that
# reads nothing scores about 0.5
MAX_PAYLOAD_BER = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(work_dir: Path, seed: int) -> list:
    """Run the set-up SETUP_REPEATS times in fresh interpreters; return the seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "make_keys.py"), str(SRC), str(work_dir), str(seed)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def tail(values):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def interquartile_mean(values) -> float:
    """Mean of the middle half of the sorted values.

    A CPU shared with other virtual machines can switch between a fast and a
    slow state (1.7x apart for the payload decoder's small FFTs on a 2-vCPU
    cloud VM) for stretches of seconds to minutes, so one run's samples can
    fall into two clusters. A median then jumps from one cluster to the
    other as their shares cross one half; the mean of the middle half moves
    with the shares and still drops stray outliers.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def auroc(positive, negative) -> float:
    """P(positive > negative) + 0.5 P(tie), the area under the ROC curve."""
    if not positive or not negative:
        return 0.0
    wins = sum((p > q) + 0.5 * (p == q) for p in positive for q in negative)
    return wins / (len(positive) * len(negative))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "echotag").glob("*.py")))


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(passes, setup_times, inputs) -> dict:
    detect_ms = [ms for p in passes for ms in p.detect_ms]
    tail_ms, _, _ = tail(detect_ms)
    last = passes[-1]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "audio_s_per_s": (inputs.audio_seconds / interquartile_mean(p.main_s for p in passes), "s/s"),
        "detect_p50_ms": (statistics.median(detect_ms), "ms"),
        "detect_tail_ms": (tail_ms, "ms"),
        "payload_bits_per_s": (
            inputs.payload_bits / interquartile_mean(s for p in passes for s in p.decode_s), "bit/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "auroc": (auroc(last.own_z, last.other_z), "frac"),
        "hit_frac": (sum(last.hits) / max(len(last.hits), 1), "frac"),
    }


def per_layer(tracer, setup_tracer, traced_ms, untraced_ms) -> dict:
    from tracer import LAYERS

    n = len(traced_ms)
    out = {}
    for module, fn in LAYERS:
        layer = f"{module}.{fn}"
        # set-up layers run once per set-up, everything else once per pass
        source, scale = (setup_tracer, 1) if module == "patterns" else (tracer, n)
        s = source.stats.get(layer, {})
        out[f"{layer}.calls"] = (s.get("calls", 0) / scale, "count")
        out[f"{layer}.busy_ms"] = (s.get("busy_ms", 0.0) / scale, "ms")
        out[f"{layer}.self_ms"] = (s.get("self_ms", 0.0) / scale, "ms")
    stats = tracer.stats

    def per_pass(layer, stat):
        return stats.get(layer, {}).get(stat, 0) / n

    def ratio(layer, num, den):
        den_value = stats.get(layer, {}).get(den, 0)
        return stats.get(layer, {}).get(num, 0) / den_value if den_value else 0.0

    out["dsp.cross_correlate.lags_computed"] = (per_pass("dsp.cross_correlate", "lags_computed"), "count")
    out["dsp.cross_correlate.scored_lag_frac"] = (
        ratio("dsp.cross_correlate", "lags_scored", "lags_computed"), "frac")
    out["dsp.real_cepstrum.points"] = (per_pass("dsp.real_cepstrum", "points"), "count")
    # shares and times per point, split by FFT-length class: per call, the
    # payload decoder's thousands of 1024-point calls would swamp the
    # whole-clip cepstra
    out["dsp.real_cepstrum.nonsmooth_frac"] = (ratio("dsp.real_cepstrum", "nonsmooth_points", "points"), "frac")
    for kind in ("smooth", "nonsmooth"):
        out[f"dsp.real_cepstrum.{kind}_ns_per_point"] = (
            1e6 * ratio("dsp.real_cepstrum", f"{kind}_ms", f"{kind}_points"), "ns")
    for layer in ("dsp.convolve", "embed.embed_spread"):
        out[f"{layer}.samples_out"] = (per_pass(layer, "samples_out"), "count")
    out["audio.resample.taps"] = (per_pass("audio.resample", "taps"), "count")
    for layer in ("audio.load_audio", "audio.save_audio"):
        out[f"{layer}.bytes"] = (per_pass(layer, "bytes"), "bytes")
    for layer in ("payload.encode_payload", "payload.decode_payload"):
        out[f"{layer}.bits"] = (per_pass(layer, "bits"), "count")
    out["trace.untraced_pass_ms"] = (statistics.median(untraced_ms), "ms")
    out["trace.traced_pass_ms"] = (statistics.median(traced_ms), "ms")
    out["trace.overhead_frac"] = (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1, "frac")
    return out


def check(passes, inputs) -> list:
    problems = [problem for p in passes for problem in p.problems]
    first = passes[0]
    for p in passes[1:]:
        if p.outputs != first.outputs:
            problems.append("evaluate results.csv/summary.json differ between passes of one config")
        if (p.hits, p.own_z, p.other_z) != (first.hits, first.own_z, first.other_z):
            problems.append("detection results differ between passes on the same inputs")
        if p.bit_errors != first.bit_errors:
            problems.append("payload decode differs between passes on the same input")
    if first.bit_errors > MAX_PAYLOAD_BER * inputs.payload_bits:
        problems.append(f"payload round trip flipped {first.bit_errors} of {inputs.payload_bits} bits")
    if not first.hits or not first.own_z or not first.other_z:
        problems.append("no detection scores to compute hit_frac/auroc from")
    return problems


def measure(args, work_dir: Path):
    from echotag.cli import main
    from make_keys import make_keys
    from tracer import Tracer
    from workloads import build_inputs, run_pass

    setup_times = []
    tracer = setup_tracer = None
    if args.trace:
        # the set-up runs once, in-process, for the set-up layers' spans
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            make_keys(str(work_dir), args.seed)
        finally:
            setup_tracer.uninstall()
        tracer = Tracer()
    else:
        setup_times = timed_setup(work_dir, args.seed)
    inputs = build_inputs(args.workload, args.seed, str(work_dir), str(work_dir / "keys.json"))
    run_pass(main, inputs)  # warm-up: caches, lazy imports, first-call costs
    passes, traced, untraced = [], [], []
    start = time.perf_counter()
    # with tracing, untraced and traced passes alternate, at least one of each
    while len(passes) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        pass_start = time.perf_counter()
        if args.trace and len(untraced) > len(traced):
            tracer.install()
            try:
                passes.append(run_pass(main, inputs))
            finally:
                tracer.uninstall()
            traced.append((time.perf_counter() - pass_start) * 1e3)
        else:
            passes.append(run_pass(main, inputs))
            untraced.append((time.perf_counter() - pass_start) * 1e3)
    problems = check(passes, inputs)
    detect_ms = [ms for p in passes for ms in p.detect_ms]
    _, percentile, samples = tail(detect_ms)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "payload_ber": passes[0].bit_errors / inputs.payload_bits,
        "detect_samples": samples,
        "detect_tail_percentile": round(percentile, 1),
        "src_echotag_lines": src_lines(),
        "machine": machine_info(),
        "problems": problems,
    }
    if args.trace:
        metrics = per_layer(tracer, setup_tracer, traced, untraced)
    else:
        metrics = end_to_end(passes, setup_times, inputs)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return meta, {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds: subprocess.run kills and reaps the set-up
    # interpreter, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "echotag" / "__init__.py").is_file():
        print(f"perfbench: no echotag sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        meta, result = measure(args, work_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
