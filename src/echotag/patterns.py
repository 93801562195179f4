"""Pseudorandom time-spread pattern design.

The pattern-set rule, checked by validate_pattern_set: at least 2 patterns of
one length L; no run of more than MAX_RUN = 2 equal bits (this pushes the
audible energy of the perturbation toward high frequencies); and pairwise
Hamming distances that spread across (0, L) instead of clustering near L/2 the
way i.i.d. patterns would: the smallest is at least L/(2*count), and sorted,
between end points 0 and L, no gap exceeds 2L/count. A set either meets the
rule or is refused: generate_pattern_set raises when its tries run out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_RUN = 2
# attempts generate_pattern_set makes at the distance-spread targets
PATTERN_SET_TRIES = 1000


@dataclass
class PatternSet:
    """A family of binary patterns, held as uint8 arrays; validate_pattern_set checks the
    pattern-set rule. It keeps no seed: a key file, the one place a set is saved, holds none."""

    patterns: list

    def __post_init__(self):
        self.patterns = [np.asarray(p, dtype=np.uint8) for p in self.patterns]

    @property
    def count(self) -> int:
        return len(self.patterns)

    @property
    def length(self) -> int:
        return int(self.patterns[0].size)

    @property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise Hamming distances: the dot product of two +-1 patterns is L - 2 * distance."""
        signs = 2 * np.array(self.patterns, dtype=int) - 1
        return (self.length - signs @ signs.T) // 2

    def pairwise_distances(self) -> np.ndarray:
        """Off-diagonal distances (count*(count-1)/2 of them), unsorted."""
        i, j = np.triu_indices(self.count, k=1)
        return self.distance_matrix[i, j]


def _runs(bits) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of equal bits, in order."""
    bits = np.asarray(bits)
    # a run starts at 0, at each bit unlike the one before it, and (a virtual one) past the end
    is_start = np.concatenate(([True], bits[1:] != bits[:-1], [True]))
    starts = np.nonzero(is_start)[0]
    return starts[:-1], starts[1:] - 1


def max_run_length(pattern) -> int:
    first, last = _runs(pattern)
    return int((last - first + 1).max())


def is_run_valid(pattern) -> bool:
    return max_run_length(pattern) <= MAX_RUN


def generate_pattern(length: int, seed: int) -> np.ndarray:
    """Seeded pseudorandom bit sequence with no run longer than two.

    Bits are drawn uniformly except where the previous two bits match, in
    which case the next bit is forced to flip; ones-density stays near 0.5.
    Deterministic in (length, seed).
    """
    if length < 2:
        raise ValueError(f"pattern length must be >= 2, got {length}")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=length, dtype=np.uint8)
    bits = np.empty(length, dtype=np.uint8)
    bits[:2] = draws[:2]
    for i in range(2, length):
        if bits[i - 1] == bits[i - 2]:
            bits[i] = 1 - bits[i - 1]
        else:
            bits[i] = draws[i]
    return bits


def repair_runs(pattern) -> np.ndarray:
    """Flip the middle bit of every run longer than two until none remain.

    A sweep flips every long run found at its start: a middle bit lies inside
    its run, so no flip changes another run of the sweep. The loop ends: the
    middle bit of a run of r >= 3 lies strictly inside it, so one sweep splits
    that run into runs of at most r // 2, and within log2(L) + 1 sweeps no run
    is longer than two.
    """
    bits = np.asarray(pattern, dtype=np.uint8).copy()
    while True:
        first, last = _runs(bits)
        too_long = last - first + 1 > MAX_RUN
        if not too_long.any():
            return bits
        bits[(first[too_long] + last[too_long]) // 2] ^= 1


def flip_bits(pattern, k: int, seed) -> np.ndarray:
    """Invert exactly k distinct positions, chosen uniformly with a seed.

    Models corruption of a key, so the run-length constraint is deliberately
    not re-enforced on the result.
    """
    bits = np.asarray(pattern, dtype=np.uint8).copy()
    if not 0 <= k <= bits.size:
        raise ValueError(f"flip count {k} outside [0, {bits.size}]")
    if k:
        rng = np.random.default_rng(seed)
        positions = rng.choice(bits.size, size=k, replace=False)
        bits[positions] ^= 1
    return bits


def generate_pattern_set(count: int, length: int, seed: int) -> PatternSet:
    """Build `count` run-valid patterns whose pairwise distances spread over (0, L).

    Pattern 0 comes from generate_pattern; the others flip nested random
    position sets of increasing size (targets i*L/count), then repair runs.
    Returns the first try that meets the pattern-set rule (module docstring);
    raises ValueError at once for a count over 2 * length, which the rule never
    allows, and when PATTERN_SET_TRIES tries have all failed.
    """
    if count < 2:
        raise ValueError(f"need at least 2 patterns for a distance spread, got {count}")
    base = generate_pattern(length, seed)
    if count > 2 * length:  # no gap may exceed 2L/count < 1, yet the sorted distances climb from 0 to L
        raise ValueError(f"the pattern-set rule allows at most 2 * length = {2 * length} patterns "
                         f"of length {length}, got count={count}")
    rng = np.random.default_rng([seed, 1])
    targets = [round(i * length / count) for i in range(1, count)]
    for _ in range(PATTERN_SET_TRIES):
        perm = rng.permutation(length)
        patterns = [base]
        for t in targets:
            flipped = base.copy()
            flipped[perm[:t]] ^= 1
            patterns.append(repair_runs(flipped))
        candidate = PatternSet(patterns)
        if not validate_pattern_set(candidate):
            return candidate
    raise ValueError(f"pattern generation did not reach the distance-spread targets "
                     f"(count={count}, length={length}, seed={seed}); try another seed")


def validate_pattern_set(ps: PatternSet) -> list:
    """Every way `ps` breaks the pattern-set rule (module docstring); empty when it holds."""
    if ps.count < 2:
        return [f"a pattern set needs at least 2 patterns, got {ps.count}"]
    lengths = sorted({p.size for p in ps.patterns})
    if len(lengths) > 1:
        return [f"patterns have mixed lengths {lengths}"]
    problems = [f"pattern {i} has a run longer than {MAX_RUN}"
                for i, p in enumerate(ps.patterns) if not is_run_valid(p)]
    distances = ps.pairwise_distances()
    min_distance = ps.length / (2 * ps.count)
    max_gap = 2 * ps.length / ps.count
    edges = np.concatenate(([0], np.sort(distances), [ps.length]))
    worst_gap = int(np.diff(edges).max())
    if distances.min() < min_distance:
        problems.append(f"minimum pairwise distance {distances.min()} below {min_distance:g}")
    if worst_gap > max_gap:
        problems.append(f"largest gap {worst_gap} between sorted distances above {max_gap:g}")
    return problems
