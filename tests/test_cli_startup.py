"""tools/cli_startup.py: the sides alternate, and the table reports quartiles and what of scipy loaded."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import cli_startup  # noqa: E402


def test_the_side_that_runs_first_alternates():
    assert [cli_startup.side_order(r) for r in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_quartiles_are_interpolated():
    assert cli_startup.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert cli_startup.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_scipy_packages_drop_private_and_nested_modules():
    modules = ["scipy", "scipy._lib", "scipy._lib._util", "scipy.io", "scipy.io.wavfile",
               "scipy.signal", "scipy.signal._signaltools", "numpy"]
    assert cli_startup.scipy_packages(modules) == ["scipy.io", "scipy.signal"]
    assert cli_startup.scipy_packages(["numpy", "json"]) == []


def test_summary_names_echotag_imports_and_counts_modules():
    assert cli_startup.scipy_summary(["numpy"]) == "none"
    assert cli_startup.scipy_summary(["scipy", "scipy._lib", "scipy.sparse"]) == "scipy (3 modules)"
    assert cli_startup.scipy_summary(["scipy", "scipy.io", "scipy.io.wavfile", "scipy.signal",
                                      "scipy.sparse", "numpy"]) == "scipy.io, scipy.signal (5 modules)"


def test_row_holds_medians_ratio_and_what_each_side_loaded():
    times = {"parent": [1.0, 1.2, 1.1], "change": [0.2, 0.3, 0.22]}
    loaded = {"parent": ["scipy", "scipy.io", "scipy.signal"], "change": []}
    assert cli_startup.format_row("--help", times, loaded) == (
        "| --help | 1.100 [1.050-1.150] | 0.220 [0.210-0.260] | 0.20 | scipy.io, scipy.signal (3 modules) | none |")
