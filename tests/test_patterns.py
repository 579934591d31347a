import numpy as np
import pytest

from upaq.patterns import (
    PATTERN_KINDS,
    KernelPattern,
    enumerate_all_patterns,
    generate_pattern,
    split_seed,
)

CHI2_DF3_1PCT = 11.344867  # chi-square critical value, df=3, alpha=0.01


def test_closed_form_positions_per_kind():
    rng = np.random.default_rng(split_seed(1, "kinds"))
    seen = set()
    for _ in range(400):
        pat = generate_pattern(2, 4, rng)
        seen.add(pat.kind)
        if pat.kind == "main_diagonal":
            assert pat.positions == ((0, 0), (1, 1))
        elif pat.kind == "anti_diagonal":
            assert pat.positions == ((0, 3), (1, 2))
        elif pat.kind == "row":
            row = pat.positions[0][0]
            start = pat.positions[0][1]
            assert 0 <= row < 4 and 0 <= start <= 2
            assert pat.positions == ((row, start), (row, start + 1))
        else:
            col = pat.positions[0][1]
            start = pat.positions[0][0]
            assert 0 <= col < 4 and 0 <= start <= 2
            assert pat.positions == ((start, col), (start + 1, col))
    assert seen == set(PATTERN_KINDS)


def test_single_cell_kernel_always_origin():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert generate_pattern(1, 1, rng).positions == ((0, 0),)


@pytest.mark.parametrize("n,d", [(0, 3), (4, 3), (1, 0)])
def test_parameter_errors(n, d):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_pattern(n, d, rng)
    with pytest.raises(ValueError):
        enumerate_all_patterns(n, d)


def test_enumeration_counts():
    assert len(enumerate_all_patterns(3, 3)) == 8
    assert len(enumerate_all_patterns(2, 3)) == 14
    assert len(enumerate_all_patterns(1, 1)) == 1
    # n=1: every single cell is reachable; diagonals and rows collapse into them
    assert len(enumerate_all_patterns(1, 3)) == 9


def test_enumeration_is_deduplicated_and_valid():
    for d in range(1, 8):
        for n in range(1, d + 1):
            pats = enumerate_all_patterns(n, d)
            keys = {p.positions for p in pats}
            assert len(keys) == len(pats)
            for p in pats:
                assert p.n == n


def test_generated_patterns_lie_in_enumeration():
    rng = np.random.default_rng(split_seed(2, "membership"))
    for d in range(1, 8):
        for n in range(1, d + 1):
            universe = {p.positions for p in enumerate_all_patterns(n, d)}
            for _ in range(100):
                assert generate_pattern(n, d, rng).positions in universe


def test_kind_uniformity_chi_square():
    # module invariant: 1e4 draws per (n, d), all four kinds present, and the
    # kind histogram passes a 1% chi-square check under this fixed seed
    for d in range(1, 8):
        for n in range(1, d + 1):
            rng = np.random.default_rng(split_seed(1234, f"chi:{n}:{d}"))
            counts = dict.fromkeys(PATTERN_KINDS, 0)
            for _ in range(10_000):
                counts[generate_pattern(n, d, rng).kind] += 1
            assert all(v > 0 for v in counts.values())
            stat = sum((v - 2500.0) ** 2 / 2500.0 for v in counts.values())
            assert stat < CHI2_DF3_1PCT, (n, d, counts)


# ---------------------------------------------------------------------------
# masking a slice with pattern.mask(), as the compressor masks its stacks
# ---------------------------------------------------------------------------

def apply_pattern(sl, pat):
    return np.where(pat.mask(), sl, np.float32(0))

def test_apply_main_diagonal_to_ones_gives_identity():
    pat = KernelPattern("main_diagonal", 3, ((0, 0), (1, 1), (2, 2)))
    out = apply_pattern(np.ones((3, 3), dtype=np.float32), pat)
    assert np.array_equal(out, np.eye(3, dtype=np.float32))


def test_apply_full_row_keeps_only_that_row():
    pat = KernelPattern("row", 3, ((1, 0), (1, 1), (1, 2)))
    sl = np.arange(9, dtype=np.float32).reshape(3, 3)
    out = apply_pattern(sl, pat)
    assert np.array_equal(out[1], sl[1])
    assert np.all(out[0] == 0) and np.all(out[2] == 0)


def test_apply_preserves_exactly_the_masked_values():
    rng = np.random.default_rng(3)
    sl = rng.uniform(1.0, 2.0, (4, 4)).astype(np.float32)  # distinct, nonzero
    pat = KernelPattern("column", 4, ((1, 2), (2, 2), (3, 2)))
    out = apply_pattern(sl, pat)
    kept = sorted(out[out != 0].tolist())
    assert kept == sorted(sl[r, c] for r, c in pat.positions)


def test_apply_is_idempotent():
    rng = np.random.default_rng(4)
    sl = rng.normal(size=(5, 5)).astype(np.float32)
    for pat in enumerate_all_patterns(3, 5):
        once = apply_pattern(sl, pat)
        assert np.array_equal(apply_pattern(once, pat), once)


def test_invalid_pattern_construction():
    with pytest.raises(ValueError):
        KernelPattern("row", 3, ((0, 0), (1, 1)))  # not one row
    with pytest.raises(ValueError):
        KernelPattern("main_diagonal", 3, ((1, 1), (2, 2)))  # not anchored at 0
    with pytest.raises(ValueError):
        KernelPattern("row", 3, ((0, 2), (0, 3)))  # out of range


@pytest.mark.parametrize("kind,cell", [("main_diagonal", (0, 0)), ("anti_diagonal", (0, 2)),
                                       ("row", (1, 0)), ("column", (0, 1))])
def test_a_repeated_cell_is_not_an_arrangement(kind, cell):
    # n cells of an arrangement are n distinct cells, so a repeat fails the arrangement check
    with pytest.raises(ValueError, match=f"are not a {kind} arrangement"):
        KernelPattern(kind, 3, (cell, cell))


def test_split_seed_is_stable_and_label_sensitive():
    assert split_seed(42, "conv1") == split_seed(42, "conv1")
    assert split_seed(42, "conv1") != split_seed(42, "conv2")
    assert split_seed(42, "conv1") != split_seed(43, "conv1")
