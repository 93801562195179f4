"""Pseudorandom time-spread pattern design.

Patterns never have more than two equal bits in a row (pushes the audible
energy of the perturbation toward high frequencies), and sets of patterns are
constructed so their pairwise Hamming distances spread across (0, L) instead
of clustering near L/2 the way i.i.d. patterns would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

MAX_RUN = 2
# sweeps of repair_runs per pattern bit; in practice one or two suffice
REPAIR_SWEEPS_PER_BIT = 10
# attempts generate_pattern_set makes at the distance-spread targets
PATTERN_SET_TRIES = 1000


@dataclass
class PatternSet:
    """A family of equal-length binary patterns with its distance matrix.

    converged is False when the spread-acceptance loop ran out of retries and
    the best-found set was kept.
    """

    patterns: list
    seed: int
    distance_matrix: np.ndarray
    converged: bool = True

    def __post_init__(self):
        self.patterns = [np.asarray(p, dtype=np.uint8) for p in self.patterns]
        self.distance_matrix = np.asarray(self.distance_matrix, dtype=int)

    @property
    def count(self) -> int:
        return len(self.patterns)

    @property
    def length(self) -> int:
        return int(self.patterns[0].size)

    def pairwise_distances(self) -> np.ndarray:
        """Off-diagonal distances (count*(count-1)/2 of them), unsorted."""
        i, j = np.triu_indices(self.count, k=1)
        return self.distance_matrix[i, j]


def max_run_length(pattern) -> int:
    bits = np.asarray(pattern)
    best = run = 1
    for i in range(1, bits.size):
        run = run + 1 if bits[i] == bits[i - 1] else 1
        best = max(best, run)
    return best


def is_run_valid(pattern, max_run: int = MAX_RUN) -> bool:
    return max_run_length(pattern) <= max_run


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
    """Flip the middle bit of every run longer than two until none remain."""
    bits = np.asarray(pattern, dtype=np.uint8).copy()
    n = bits.size
    max_sweeps = REPAIR_SWEEPS_PER_BIT * n
    for _ in range(max_sweeps):
        changed = False
        i = 0
        while i < n:
            j = i
            while j + 1 < n and bits[j + 1] == bits[i]:
                j += 1
            if j - i + 1 > MAX_RUN:
                bits[(i + j) // 2] ^= 1
                changed = True
            i = j + 1
        if not changed:
            return bits
    log.warning("run repair did not converge in %d sweeps", max_sweeps)
    return bits


def hamming(pattern_a, pattern_b) -> int:
    """Count of differing positions between two equal-length bit sequences."""
    a = np.asarray(pattern_a)
    b = np.asarray(pattern_b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return int(np.count_nonzero(a != b))


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


def _distance_matrix(patterns) -> np.ndarray:
    count = len(patterns)
    m = np.zeros((count, count), dtype=int)
    for i in range(count):
        for j in range(i + 1, count):
            m[i, j] = m[j, i] = hamming(patterns[i], patterns[j])
    return m


def _spread_gaps(distances, length) -> np.ndarray:
    # gaps between sorted distances, with virtual endpoints at 0 and L so a
    # cluster near L/2 cannot pass as "spread"
    edges = np.concatenate(([0], np.sort(distances), [length]))
    return np.diff(edges)


def generate_pattern_set(count: int, length: int, seed: int) -> PatternSet:
    """Build `count` run-valid patterns whose pairwise distances spread over (0, L).

    Pattern 0 comes from generate_pattern; the others flip nested random
    position sets of increasing size (targets i*L/count), then repair runs.
    Retries until the sorted distances (with endpoints 0 and L) have maximum
    gap <= 2L/count and minimum distance >= L/(2*count); if the retry budget
    runs out, the best-found set is returned with converged=False.
    """
    if count < 2:
        raise ValueError(f"need at least 2 patterns for a distance spread, got {count}")
    base = generate_pattern(length, seed)
    rng = np.random.default_rng([seed, 1])
    targets = [round(i * length / count) for i in range(1, count)]
    min_distance = length / (2 * count)
    max_gap = 2 * length / count

    best = None
    best_gap = np.inf
    for _ in range(PATTERN_SET_TRIES):
        perm = rng.permutation(length)
        patterns = [base]
        for t in targets:
            flipped = base.copy()
            flipped[perm[:t]] ^= 1
            patterns.append(repair_runs(flipped))
        matrix = _distance_matrix(patterns)
        distances = matrix[np.triu_indices(count, k=1)]
        worst_gap = _spread_gaps(distances, length).max()
        if distances.min() >= min_distance and worst_gap <= max_gap:
            return PatternSet(patterns=patterns, seed=seed, distance_matrix=matrix)
        if worst_gap < best_gap:
            best, best_gap = (patterns, matrix), worst_gap
    log.warning(
        "pattern set (count=%d, L=%d, seed=%d) did not meet spread targets in %d tries; "
        "returning best found (max gap %d)",
        count, length, seed, PATTERN_SET_TRIES, int(best_gap),
    )
    patterns, matrix = best
    return PatternSet(patterns=patterns, seed=seed, distance_matrix=matrix, converged=False)


def validate_pattern_set(ps: PatternSet) -> list:
    """Return a list of constraint-violation messages (empty when valid)."""
    problems = []
    lengths = {p.size for p in ps.patterns}
    if len(lengths) != 1:
        problems.append(f"patterns have mixed lengths {sorted(lengths)}")
        return problems
    for idx, p in enumerate(ps.patterns):
        if not is_run_valid(p):
            problems.append(f"pattern {idx} has a run longer than {MAX_RUN}")
    expected = _distance_matrix(ps.patterns)
    if not np.array_equal(expected, ps.distance_matrix):
        problems.append("distance matrix does not match patterns")
    min_distance = ps.length / (2 * ps.count)
    distances = ps.pairwise_distances()
    if distances.size and distances.min() < min_distance:
        problems.append(
            f"minimum pairwise distance {int(distances.min())} below {min_distance:.0f}"
        )
    return problems
