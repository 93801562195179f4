"""Per-layer tracing of echotag from outside the package.

`Tracer.install()` wraps the public functions listed in LAYERS and rebinds
every alias of each one in every loaded `echotag.*` module. echotag modules
import functions by name (`harness`, `detect` and `payload` each hold their
own `real_cepstrum`, `embed` holds `convolve`, `cli` holds `embed` and the
detectors), so wrapping only the defining module would let most calls bypass
the span. `uninstall()` restores the originals.

Spans live in memory: each thread keeps its own stack, so a span's self time
is its duration minus the durations of its direct children in that thread.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from fractions import Fraction

from make_keys import SPREAD_DELTA

# (module, function) pairs wrapped as layers; the names match the per-layer
# metrics `<module>.<function>.<stat>`
LAYERS = (
    ("audio", "load_audio"),
    ("audio", "save_audio"),
    ("audio", "resample"),
    ("dsp", "real_cepstrum"),
    ("dsp", "convolve"),
    ("dsp", "cross_correlate"),
    ("embed", "embed"),
    ("embed", "embed_single_echo"),
    ("embed", "embed_spread"),
    ("detect", "zscore_profile"),
    ("detect", "detect_single_echo"),
    ("detect", "detect_spread"),
    ("harness", "apply_channel"),
    ("harness", "run_duration_sweep"),
    ("harness", "run_bitflip_curve"),
    ("evalrun", "run_evaluation"),
    ("keyfiles", "load_key_file"),
    ("patterns", "generate_pattern_set"),
    ("payload", "encode_payload"),
    ("payload", "decode_payload"),
    ("cli", "cmd_detect"),
    ("cli", "cmd_payload"),
    ("cli", "cmd_evaluate"),
)

# every spread key the benchmark writes has lag SPREAD_DELTA; the scored band
# of a spread correlation is [3, L + SPREAD_DELTA]
SPREAD_BAND_START = 3
SMOOTH_PRIME_LIMIT = 13

# mirrors echotag.audio's polyphase design, to count filter taps from rates
_TAPS_PER_PHASE = 64
_MAX_POLYPHASE_FACTOR = 4096


def largest_prime_factor(n: int) -> int:
    n = int(n)
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n) if n > 1 else best


def is_smooth(n: int) -> bool:
    """True when n has no prime factor above 13 (a fast FFT length)."""
    return largest_prime_factor(n) <= SMOOTH_PRIME_LIMIT


def resample_taps(rate_in: int, rate_out: int) -> int:
    """Filter taps echotag.audio.resample designs for one rate pair."""
    frac = Fraction(int(rate_out), int(rate_in))
    if max(frac.numerator, frac.denominator) > _MAX_POLYPHASE_FACTOR:
        frac = frac.limit_denominator(_MAX_POLYPHASE_FACTOR)
    return _TAPS_PER_PHASE * max(frac.numerator, frac.denominator) + 1


def _length(x) -> int:
    samples = getattr(x, "samples", x)
    return int(len(samples))


def _count_cross_correlate(args, kwargs, result, ms, add):
    n = _length(args[0])
    length = _length(args[1])
    computed = n - length + 1
    add("lags_computed", computed)
    add("lags_scored", max(0, min(length + SPREAD_DELTA, computed - 1) - SPREAD_BAND_START + 1))


def _count_real_cepstrum(args, kwargs, result, ms, add):
    n = _length(args[0])
    add("points", n)
    kind = "smooth" if is_smooth(n) else "nonsmooth"
    add(f"{kind}_calls", 1)
    add(f"{kind}_points", n)
    add(f"{kind}_ms", ms)


def _count_samples_out(args, kwargs, result, ms, add):
    add("samples_out", _length(result))


def _count_resample(args, kwargs, result, ms, add):
    target = args[1] if len(args) > 1 else kwargs["target_rate"]
    add("taps", resample_taps(args[0].sample_rate, target))


def _count_load(args, kwargs, result, ms, add):
    add("bytes", os.path.getsize(args[0]))


def _count_save(args, kwargs, result, ms, add):
    add("bytes", os.path.getsize(args[1]))


def _count_encode(args, kwargs, result, ms, add):
    add("bits", _length(args[1]))


def _count_decode(args, kwargs, result, ms, add):
    add("bits", _length(result))


COUNTERS = {
    "dsp.cross_correlate": _count_cross_correlate,
    "dsp.real_cepstrum": _count_real_cepstrum,
    "dsp.convolve": _count_samples_out,
    "embed.embed_spread": _count_samples_out,
    "audio.resample": _count_resample,
    "audio.load_audio": _count_load,
    "audio.save_audio": _count_save,
    "payload.encode_payload": _count_encode,
    "payload.decode_payload": _count_decode,
}


class Tracer:
    """Collects calls, busy time, self time and counts per wrapped layer."""

    def __init__(self):
        self.stats = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bound = []

    def _add(self, layer, stat, value):
        with self._lock:
            entry = self.stats.setdefault(layer, {})
            entry[stat] = entry.get(stat, 0) + value

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        add = functools.partial(self._add, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [0.0]  # summed duration of direct children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - start) * 1e3
                stack.pop()
                if stack:
                    stack[-1][0] += ms
                add("calls", 1)
                add("busy_ms", ms)
                add("self_ms", ms - frame[0])
            if counter is not None:
                counter(args, kwargs, result, ms, add)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def install(self):
        """Wrap every layer and rebind all of its aliases in echotag modules."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "echotag" or name.startswith("echotag."))]
        for module_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"echotag.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound = []
