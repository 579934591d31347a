"""Randomized semi-structured kernel masks.

A pattern keeps ``n`` weights of a ``d x d`` kernel slice arranged on the main
diagonal, the anti-diagonal, a run of consecutive cells in one row, or a run
of consecutive cells in one column.  Diagonal arrangements are anchored at
index 0; rows and columns draw a uniformly random line index in ``[0, d)``
and a uniformly random start offset in ``[0, d - n]`` (inclusive), the only
offset range that keeps ``n`` consecutive cells in bounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

PATTERN_KINDS = ("main_diagonal", "anti_diagonal", "row", "column")


def split_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit substream seed from (seed, label).

    Uses SHA-256 so the split is stable across platforms and Python runs,
    which keeps per-group randomness independent of scheduling order.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _arrangement(kind: str, n: int, d: int, line: int = 0, start: int = 0) -> tuple[tuple[int, int], ...]:
    """The ``n`` cells of arrangement ``kind`` in a d x d slice.  A diagonal
    starts at index 0; a row or column runs from ``start`` along ``line``."""
    if kind == "main_diagonal":
        return tuple((i, i) for i in range(n))
    if kind == "anti_diagonal":
        return tuple((i, d - 1 - i) for i in range(n))
    if kind == "row":
        return tuple((line, start + i) for i in range(n))
    return tuple((start + i, line) for i in range(n))


@dataclass(frozen=True)
class KernelPattern:
    """Retained positions of a d x d kernel slice, one of four arrangements."""

    kind: str
    d: int
    positions: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("kernel dimension must be >= 1")
        n = len(self.positions)
        if n < 1 or n > self.d:
            raise ValueError(f"pattern must keep between 1 and d={self.d} positions, got {n}")
        for r, c in self.positions:
            if not (0 <= r < self.d and 0 <= c < self.d):
                raise ValueError(f"position ({r}, {c}) outside [0, {self.d})")
        first_row, first_col = self.positions[0]
        line, start = (first_col, first_row) if self.kind == "column" else (first_row, first_col)
        if self.positions != _arrangement(self.kind, n, self.d, line, start):
            raise ValueError(f"positions {self.positions} are not a {self.kind} arrangement")

    @property
    def n(self) -> int:
        return len(self.positions)

    def mask(self) -> np.ndarray:
        """Boolean d x d mask, True at retained positions."""
        m = np.zeros((self.d, self.d), dtype=bool)
        m[tuple(zip(*self.positions))] = True
        return m


def generate_pattern(n: int, d: int, rng: np.random.Generator) -> KernelPattern:
    """Draw one random pattern with ``n`` retained cells in a d x d kernel.

    The arrangement kind is drawn uniformly; all randomness comes from
    ``rng``.  Draw order is fixed (kind, then line index, then start offset)
    so a given generator state always yields the same pattern.
    """
    _check_params(n, d)
    kind, positions = _draw_positions(n, d, rng)
    return KernelPattern(kind=kind, d=d, positions=positions)


def _draw_positions(n: int, d: int, rng: np.random.Generator) -> tuple[str, tuple[tuple[int, int], ...]]:
    """The ``(kind, positions)`` of :func:`generate_pattern`'s draw, without
    building the pattern; ``n`` and ``d`` are taken as already checked."""
    kind = PATTERN_KINDS[int(rng.integers(0, len(PATTERN_KINDS)))]
    if kind not in ("row", "column"):
        return kind, _arrangement(kind, n, d)
    line = int(rng.integers(0, d))
    start = int(rng.integers(0, d - n + 1))
    return kind, _arrangement(kind, n, d, line, start)


def enumerate_all_patterns(n: int, d: int) -> list[KernelPattern]:
    """Every pattern reachable by :func:`generate_pattern`, deduplicated.

    Canonical order: main diagonal, anti-diagonal, rows (by row then start),
    columns (by column then start).  Duplicates by retained-position set keep
    their first occurrence, so e.g. (n=1, d=1) collapses to a single pattern.
    """
    _check_params(n, d)
    out: dict[tuple[tuple[int, int], ...], KernelPattern] = {}
    for kind in PATTERN_KINDS:
        lines, starts = (range(d), range(d - n + 1)) if kind in ("row", "column") else (range(1), range(1))
        for line in lines:
            for start in starts:
                pat = KernelPattern(kind, d, _arrangement(kind, n, d, line, start))
                out.setdefault(pat.positions, pat)
    return list(out.values())


def _check_params(n: int, d: int) -> None:
    if d < 1:
        raise ValueError(f"kernel dimension must be >= 1, got {d}")
    if n < 1 or n > d:
        raise ValueError(f"retained count must satisfy 1 <= n <= d, got n={n}, d={d}")
