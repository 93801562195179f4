"""Compare what `evaluate` writes in two checkouts on perfbench's inputs.

    python3 tools/compare_evaluate.py PARENT CHANGE --workload eval-spread --seeds 1,2

PARENT and CHANGE are the roots of two checkouts of this repository. For
each seed the inputs are built once, the way the benchmark builds them: the
key file by PARENT's `perfbench/make_keys.py` with PARENT's echotag, the
corpus and config by this repository's `perfbench/workloads.py` (imported,
never changed). `evaluate` then runs on those inputs in each checkout, in a
fresh interpreter, and the two `results.csv`/`summary.json` are compared.

Per seed it prints "byte-identical", or else the largest |change in z| and
every other field that differs. z fields are a duration-sweep row's
`z_at_key` and the summary's median and maximum z; a bit-flip row keeps its
AUROC in the `z_at_key` column and is compared exactly, like every other
field. Exits 1 when any field other than a z field differs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import build_inputs  # noqa: E402

WORKLOADS = ("eval-spread", "eval-pitch")

# summary.json fields that are z-scores (or medians and maxima of them)
Z_SUMMARY_FIELDS = {"median_z_embedded", "median_z_clean", "median_z", "median_abs_z", "max_abs_z"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the reference checkout")
    parser.add_argument("change", help="root of the checkout to compare with it")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True,
                        type=lambda s: [int(v) for v in s.split(",")],
                        help="comma-separated benchmark seeds, e.g. 1,2")
    return parser.parse_args(argv)


def checkout_env(checkout) -> dict:
    """The environment of a command run in `checkout`: its echotag first on the
    path, and one BLAS/OpenMP thread unless set, as the benchmark runs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def run_python(argv, checkout, cwd):
    """Run a Python command in `checkout` and return it finished; fail loudly."""
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=checkout_env(checkout),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {checkout} (exit {done.returncode}):\n"
                         f"{done.stderr.strip()}")
    return done


def build_benchmark_inputs(parent, workload, seed, inputs_dir):
    """perfbench's inputs for one workload and seed, in `inputs_dir`; the key file
    is made by PARENT's `make_keys.py` with PARENT's echotag."""
    run_python([os.path.join(parent, "perfbench", "make_keys.py"), os.path.join(parent, "src"),
                inputs_dir, str(seed)], parent, inputs_dir)
    return build_inputs(workload, seed, inputs_dir, os.path.join(inputs_dir, "keys.json"))


def run_evaluate(parent, change, workload, seed, work_dir) -> dict:
    """Build one seed's inputs and run evaluate in each checkout; return {side: (csv, json)} bytes."""
    inputs_dir = os.path.join(work_dir, "inputs")
    os.makedirs(inputs_dir)
    inputs = build_benchmark_inputs(parent, workload, seed, inputs_dir)
    config_path = inputs.main_argv[inputs.main_argv.index("--config") + 1]
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["corpus"] = os.path.join(inputs_dir, config["corpus"])
    outputs = {}
    for side, checkout in (("parent", parent), ("change", change)):
        side_dir = os.path.join(work_dir, side)
        os.makedirs(side_dir)
        side_config = os.path.join(side_dir, "eval.json")
        with open(side_config, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        run_python(["-m", "echotag.cli", "evaluate", "--config", side_config], checkout, side_dir)
        results = os.path.join(side_dir, config["output_dir"])
        with open(os.path.join(results, "results.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(results, "summary.json"), "rb") as fh:
            json_bytes = fh.read()
        outputs[side] = (csv_bytes, json_bytes)
    return outputs


def _flatten(value, path=()):
    """(path, leaf) pairs of a JSON document; a list's items are keyed by index."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _flatten(item, path + (index,))
    else:
        yield path, value


def _is_z_path(path) -> bool:
    return any(part in Z_SUMMARY_FIELDS for part in path if isinstance(part, str))


def compare(parent, change):
    """(max |dz|, z fields moved, [non-z differences]) between two
    (results.csv, summary.json) byte pairs."""
    max_dz = 0.0
    moved = 0
    problems = []

    def z_delta(where, a, b):
        nonlocal max_dz, moved
        if a == b:
            return
        if a is None or b is None:
            problems.append(f"{where}: {a!r} -> {b!r}")
        else:
            max_dz = max(max_dz, abs(float(a) - float(b)))
            moved += 1

    rows_a = list(csv.DictReader(io.StringIO(parent[0].decode("utf-8"))))
    rows_b = list(csv.DictReader(io.StringIO(change[0].decode("utf-8"))))
    if len(rows_a) != len(rows_b):
        problems.append(f"results.csv: {len(rows_a)} rows -> {len(rows_b)} rows")
    for index, (a, b) in enumerate(zip(rows_a, rows_b)):
        if a.keys() != b.keys():
            problems.append(f"results.csv row {index}: columns {list(a)} -> {list(b)}")
            continue
        for name in a:
            where = f"results.csv row {index} {name}"
            if name == "z_at_key" and a["experiment"] == "duration_sweep":
                z_delta(where, a[name] or None, b[name] or None)
            elif a[name] != b[name]:
                problems.append(f"{where}: {a[name]!r} -> {b[name]!r}")

    leaves_a = dict(_flatten(json.loads(parent[1])))
    leaves_b = dict(_flatten(json.loads(change[1])))
    for path in sorted(leaves_a.keys() | leaves_b.keys(), key=repr):
        where = "summary.json " + ".".join(map(str, path))
        if path not in leaves_a or path not in leaves_b:
            problems.append(f"{where}: present on one side only")
        elif _is_z_path(path):
            z_delta(where, leaves_a[path], leaves_b[path])
        elif leaves_a[path] != leaves_b[path]:
            problems.append(f"{where}: {leaves_a[path]!r} -> {leaves_b[path]!r}")
    return max_dz, moved, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    failed = False
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="compare_evaluate.") as work_dir:
            outputs = run_evaluate(parent, change, args.workload, seed, work_dir)
        label = f"{args.workload} seed {seed}:"
        if outputs["parent"] == outputs["change"]:
            print(label, "byte-identical")
            continue
        max_dz, moved, problems = compare(outputs["parent"], outputs["change"])
        print(label, f"{moved} z field(s) moved, max |dz| {max_dz:.3g};",
              f"{len(problems)} non-z field(s) differ")
        for problem in problems:
            print("   ", problem)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
