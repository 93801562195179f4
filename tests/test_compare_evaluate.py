"""tools/compare_evaluate.py: z moves are measured, every other difference fails."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import compare_evaluate  # noqa: E402

HEADER = "experiment,clip_id,condition,key_id,duration_seconds,segment_index,flips,argmax_lag,z_at_key,degenerate"


def outputs(z=1.5, lag=75, auroc=0.75, median=1.5):
    """A (results.csv, summary.json) pair with one sweep row and one bit-flip row."""
    rows = [HEADER, f"duration_sweep,c,embedded,k,2.0,0,,{lag},{z!r},false",
            f"bitflip_curve,,perturbed,k,4.0,,128,,{auroc!r},false"]
    summary = {"duration_sweep": {"median_z_embedded": {"2.0": median}},
               "bitflip_curve": {"auroc": [auroc], "clean_auroc": 1.0}}
    return "\r\n".join(rows).encode() + b"\r\n", json.dumps(summary).encode()


def test_z_moves_are_measured_not_failed():
    max_dz, moved, problems = compare_evaluate.compare(outputs(), outputs(z=1.5 + 2e-14, median=1.5 - 3e-14))
    assert problems == []
    assert moved == 2
    assert 2e-14 < max_dz < 4e-14


def test_a_lag_or_an_auroc_is_a_problem():
    _, _, problems = compare_evaluate.compare(outputs(), outputs(lag=74))
    assert problems == ["results.csv row 0 argmax_lag: '75' -> '74'"]
    # a bit-flip row's z_at_key column holds its AUROC, which must not move
    max_dz, _, problems = compare_evaluate.compare(outputs(), outputs(auroc=0.76))
    assert max_dz == 0
    assert problems == ["results.csv row 1 z_at_key: '0.75' -> '0.76'",
                        "summary.json bitflip_curve.auroc.0: 0.75 -> 0.76"]

