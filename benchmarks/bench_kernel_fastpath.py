"""Kernel fast path — vectorized CSR helpers vs the pre-PR2 row loops.

PR 2 vectorized ``diagonal``/``subset_matvec``/``todense`` and memoised the
multicolor Gauss–Seidel partitions.  This bench times each fast path under
pytest-benchmark and cross-checks it against the preserved loop baseline
(:mod:`benchmarks.kernel_oracles`) for both speed and bit-exact numerics.
``python scripts/gate.py kernels`` makes the same comparison and holds
each speedup against the committed ``BENCH_PR2.json``.
"""

import numpy as np
import pytest

from benchmarks.kernel_oracles import (
    diagonal_loop,
    multicolor_gather_loop,
    subset_matvec_loop,
    todense_loop,
)
from repro.analysis.tables import TextTable
from repro.hpcg.problem import generate_problem
from repro.hpcg.symgs import MulticolorSymgs


@pytest.fixture(scope="module")
def problem24():
    return generate_problem(24)


@pytest.fixture(scope="module")
def problem12():
    return generate_problem(12)


def cold(matrix):
    """Drop the matrix's memoised results so the *computation* is timed,
    not a cache hit (the loop baselines never had these caches)."""
    matrix._diag = None
    matrix._row_index_cache = None
    return matrix


def test_diagonal_fast_vs_loop(benchmark, problem24):
    m = problem24.matrix
    loop = diagonal_loop(m)

    fast = benchmark(lambda: cold(m).diagonal())
    np.testing.assert_array_equal(fast, loop)


def test_subset_matvec_fast_vs_loop(benchmark, problem24):
    m = problem24.matrix
    rng = np.random.default_rng(7)
    x = rng.normal(size=m.ncols)
    rows = problem24.color_rows(0)
    loop = subset_matvec_loop(m, rows, x)

    fast = benchmark(m.subset_matvec, rows, x)
    np.testing.assert_allclose(fast, loop, rtol=1e-13, atol=1e-13)


def test_todense_fast_vs_loop(benchmark, problem12):
    m = problem12.matrix
    loop = todense_loop(m)

    fast = benchmark(lambda: cold(m).todense())
    np.testing.assert_array_equal(fast, loop)


def test_multicolor_setup_cached(benchmark, problem24):
    """Second and later smoother constructions reuse the cached partitions."""
    MulticolorSymgs(problem24)  # warm the per-problem cache

    smoother = benchmark(MulticolorSymgs, problem24)
    baseline = multicolor_gather_loop(problem24)
    for (ia, xa, da), (ib, xb, db) in zip(smoother._per_color, baseline):
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(da, db)


def test_fastpath_summary(problem24, problem12, capsys):
    """Print a one-shot before/after table (speed measured by the suite)."""
    table = TextTable(
        ["Kernel", "Baseline", "Fast path"],
        title="\nPR2 kernel fast path (bit-identical results)",
    )
    table.add_row("diagonal", "row loop + searchsorted", "boolean mask, cached")
    table.add_row("subset_matvec", "per-row np.dot", "gather + reduceat, memoised")
    table.add_row("todense", "row loop", "single fancy-index scatter")
    table.add_row("multicolor setup", "per-row gather each build", "cached on problem")
    with capsys.disabled():
        print(table.render())
