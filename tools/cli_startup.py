"""Time `echotag` commands in fresh processes in two checkouts, on perfbench's inputs.

    python3 tools/cli_startup.py PARENT CHANGE [--json out.json]

PARENT and CHANGE are the roots of two checkouts of this repository. The
inputs are built once, the way the benchmark builds them (eval-spread
workload, seed SEED), by `compare_evaluate.build_benchmark_inputs`, plus the
payload file by one untimed `payload encode` in PARENT. Each command then
runs REPEATS times per side as `python -m echotag.cli ...` in a new
interpreter, with one BLAS/OpenMP thread, the side that goes first
alternating from one repeat to the next. A run is timed from `Popen` to a
blocking `wait()` with no timeout: `subprocess.run(..., timeout=...)` polls
the child with sleeps of up to 50 ms, which rounds short runs up to its
polling steps.

It prints, per command, each side's median wall time with its quartiles, the
ratio of the medians, and what of scipy the command had loaded when it
finished (from one more, untimed run per side): which of `scipy.io` and
`scipy.signal`, and how many scipy modules in all. `--json` also keeps every
subpackage. A command that exits non-zero stops the script (with its stderr,
when the untimed run fails).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from compare_evaluate import build_benchmark_inputs, checkout_env, run_python

SIDES = ("parent", "change")
REPEATS = 9  # timed runs per command and side
SEED = 1  # benchmark seed of the inputs
# the scipy subpackages echotag itself imports
ECHOTAG_IMPORTS = ("scipy.io", "scipy.signal")

# runs main(argv) like `python -m echotag.cli`, then prints the scipy modules loaded
PROBE = """
import json, sys
from echotag.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
sys.exit(code)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the reference checkout")
    parser.add_argument("change", help="root of the checkout to compare with it")
    parser.add_argument("--json", default=None, help="also write every time to this file")
    return parser.parse_args(argv)


def commands(inputs, work_dir: str) -> dict:
    """{name: argv} of the commands timed, on one workload's built inputs."""
    clip = inputs.detects[0][0]
    detect = ["detect", "--in", clip, "--key-file", inputs.key_file, "--key"]
    return {
        "--help": ["--help"],
        "gen-patterns": ["--seed", str(SEED), "gen-patterns", "--count", "4", "--length", "1024",
                         "--out", os.path.join(work_dir, "ps.json")],
        "single-echo detect": detect + ["echo75"],
        "resampling detect": detect + ["echo75", "--sample-rate", "48000"],
        "payload decode": ["payload", "decode", "--in", inputs.payload_out,
                           "--n-bits", str(inputs.payload_bits)],
        "spread detect": detect + ["pn0"],
        "spread embed": ["embed", "--in", clip, "--out", os.path.join(work_dir, "spread.wav"),
                         "--key-file", inputs.key_file, "--key", "pn0"],
    }


def side_order(repeat: int) -> tuple:
    """The sides in the order they run on one repeat: parent first on even repeats."""
    return SIDES if repeat % 2 == 0 else SIDES[::-1]


def quartiles(values) -> tuple:
    """(25th percentile, median, 75th percentile), linearly interpolated."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def scipy_packages(modules) -> list:
    """The scipy subpackages (`scipy.io`, `scipy.signal`, ...) among loaded module names."""
    return sorted({".".join(m.split(".")[:2]) for m in modules
                   if m.startswith("scipy.") and not m.split(".")[1].startswith("_")})


def scipy_summary(modules) -> str:
    """Which of the subpackages echotag imports were loaded, and how many scipy modules in all."""
    modules = [m for m in modules if m.split(".")[0] == "scipy"]
    if not modules:
        return "none"
    named = [p for p in scipy_packages(modules) if p in ECHOTAG_IMPORTS]
    return f"{', '.join(named) or 'scipy'} ({len(modules)} modules)"


def format_row(name, times, loaded) -> str:
    """One table row: each side's median [quartiles], the ratio, and what each side loaded."""
    cells = []
    for side in SIDES:
        q1, median, q3 = quartiles(times[side])
        cells.append(f"{median:.3f} [{q1:.3f}-{q3:.3f}]")
    ratio = quartiles(times["change"])[1] / quartiles(times["parent"])[1]
    packages = " | ".join(scipy_summary(loaded[side]) for side in SIDES)
    return f"| {name} | {cells[0]} | {cells[1]} | {ratio:.2f} | {packages} |"


def loaded_modules(checkout, argv, cwd) -> list:
    """Run one command through PROBE; the scipy modules it had loaded when it finished."""
    done = run_python(["-c", PROBE, *argv], checkout, cwd)
    return json.loads(done.stderr.strip().splitlines()[-1])


def timed_run(checkout, argv, cwd) -> float:
    """Seconds from starting `python -m echotag.cli argv` to its exit."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "echotag.cli", *argv], cwd=cwd,
                            env=checkout_env(checkout),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    code = proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:  # the untimed probe run of this command passed, so this is rare
        raise SystemExit(f"{' '.join(argv)} failed in {checkout} (exit {code})")
    return elapsed


def build(parent, work_dir):
    """perfbench's eval-spread inputs for SEED, plus the encoded payload file."""
    inputs = build_benchmark_inputs(parent, "eval-spread", SEED, work_dir)
    run_python(["-m", "echotag.cli", "payload", "encode", "--in", inputs.payload_in,
                "--out", inputs.payload_out, "--bits", inputs.payload_hex,
                "--n-bits", str(inputs.payload_bits)], parent, work_dir)
    return inputs


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory(prefix="cli_startup.") as work_dir:
        inputs = build(checkouts["parent"], work_dir)
        timed = commands(inputs, work_dir)
        loaded = {name: {side: loaded_modules(checkouts[side], argv, work_dir) for side in SIDES}
                  for name, argv in timed.items()}
        times = {name: {side: [] for side in SIDES} for name in timed}
        for repeat in range(REPEATS):
            for name, command in timed.items():
                for side in side_order(repeat):
                    times[name][side].append(timed_run(checkouts[side], command, work_dir))
    print(f"wall seconds per fresh process, median [quartiles] of {REPEATS}; scipy loaded at exit")
    print("| command | parent (s) | change (s) | change/parent | scipy: parent | change |")
    print("|---|---|---|---|---|---|")
    for name in timed:
        print(format_row(name, times[name], loaded[name]))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"repeats": REPEATS, "seed": SEED, "times": times,
                       "scipy_packages": {name: {side: scipy_packages(mods) for side, mods in sides.items()}
                                          for name, sides in loaded.items()}},
                      fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
