import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nyridge import lowrank

from nyridge.errors import ConfigError, DataError, NumericalError, ParseError
from nyridge.kernels import KernelSpec, cross_gram, gram
from nyridge.lowrank import (
    ColumnSelection,
    LowRankFactor,
    _top_eig,
    _triu_inv,
    approx_error,
    feature_matrix,
    load_factor,
    make_column_oracle,
    materialized_diag,
    nested_factor,
    nystrom,
    pivoted_ichol,
    prefix_errors,
    sample_columns,
    save_factor,
)
from nyridge.stats import Spectrum


def direct_nystrom(K, idx):
    """L = K(V, I) K(I, I)^+ K(I, V) straight from the formula, as an oracle
    independent of the Cholesky loop."""
    cols = K[:, idx]
    return cols @ np.linalg.pinv(K[np.ix_(idx, idx)], rcond=1e-12, hermitian=True) @ cols.T


def random_psd(n, seed, cond_floor=1e-6):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ev = 10.0 ** rng.uniform(np.log10(cond_floor), 0.0, size=n)
    return (q * ev) @ q.T


class TestSampleColumns:
    def test_full_selection_is_everything(self):
        for seed in range(5):
            sel = sample_columns(5, 5, seed)
            assert sorted(sel.indices.tolist()) == [0, 1, 2, 3, 4]

    def test_determinism(self):
        a = sample_columns(100, 17, 123)
        b = sample_columns(100, 17, 123)
        assert np.array_equal(a.indices, b.indices)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            sample_columns(5, 6, 0)
        with pytest.raises(ConfigError):
            sample_columns(5, 0, 0)

    def test_uniformity_chi_square(self):
        # single-index draws over a shared generator; the global chi-square
        # statistic should sit within 4 sigma of its mean (df = n - 1)
        n, draws = 1000, 10**5
        rng = np.random.default_rng(99)
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_columns(n, 1, rng).indices[0]] += 1
        expected = draws / n
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        df = n - 1
        assert abs(chi2 - df) <= 4.0 * np.sqrt(2.0 * df)


class TestNystrom:
    def test_all_columns_reproduces_k(self):
        K = random_psd(20, 0)
        F = nystrom(K, sample_columns(20, 20, 1))
        L = F.gram()
        assert np.linalg.norm(L - K) <= 1e-10 * np.linalg.norm(K)

    def test_two_by_two_by_hand(self):
        K = np.array([[2.0, 1.0], [1.0, 2.0]])
        F = nystrom(K, ColumnSelection(np.array([0]), "uniform-random", 2))
        L = F.gram()
        assert np.allclose(L, [[2.0, 1.0], [1.0, 0.5]], atol=1e-12)
        resid = K - L
        assert np.linalg.eigvalsh(resid)[0] >= -1e-12

    def test_rank_one_exact(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=12)
        v[3] = 1.5  # selected coordinate nonzero
        K = np.outer(v, v)
        F = nystrom(K, ColumnSelection(np.array([3]), "uniform-random", 12))
        assert np.allclose(F.gram(), K, atol=1e-10 * np.abs(K).max())

    def test_column_reproduction_invariant(self):
        K = random_psd(30, 2)
        sel = sample_columns(30, 7, 3)
        L = nystrom(K, sel).gram()
        scale = np.abs(K).max()
        assert np.max(np.abs(L[:, sel.indices] - K[:, sel.indices])) <= 1e-8 * scale

    def test_approximation_from_below(self):
        K = random_psd(25, 5)
        for p in (1, 5, 12, 25):
            L = nystrom(K, sample_columns(25, p, p)).gram()
            ev = np.linalg.eigvalsh(K - L)
            assert ev[0] >= -1e-8 * np.linalg.eigvalsh(K)[-1]

    def test_monotone_in_nested_selections(self):
        K = random_psd(24, 6)
        perm = np.random.default_rng(0).permutation(24)
        traces = []
        for p in (2, 6, 12, 24):
            sel = ColumnSelection(perm[:p], "uniform-random", 24)
            traces.append(np.trace(K - nystrom(K, sel).gram()))
        trK = np.trace(K)
        for a, b in zip(traces, traces[1:]):
            assert b <= a + 1e-8 * trK

    def test_determinism_bit_identical(self):
        K = random_psd(16, 7)
        sel = sample_columns(16, 5, 11)
        a = nystrom(K, sel)
        b = nystrom(K, sel)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.whitener, b.whitener)


class TestPivotedIchol:
    def test_full_factorization(self):
        K = random_psd(32, 8, cond_floor=1e-4)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=32)
        assert np.linalg.norm(F.gram() - K) <= 1e-8 * np.linalg.norm(K)
        assert F.trace_residual_trail[-1] <= 1e-8 * np.trace(K)

    def test_first_pivot_residual_zero(self):
        K = random_psd(12, 9)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=1)
        j = F.selection.indices[0]
        assert j == int(np.argmax(np.diag(K)))
        resid_diag = np.diag(K) - F.phi[:, 0] ** 2
        assert abs(resid_diag[j]) <= 1e-12 * np.diag(K).max()

    def test_matches_nystrom_on_pivot_set(self):
        K = random_psd(40, 10)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=13)
        direct = direct_nystrom(K, F.selection.indices)
        assert np.linalg.norm(F.gram() - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_trail_is_exact_trace_residual(self):
        for n in (16, 64, 128):
            K = random_psd(n, n)
            F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=min(n, 20))
            for k in range(F.rank):
                Lk = F.phi[:, : k + 1] @ F.phi[:, : k + 1].T
                assert F.trace_residual_trail[k] == pytest.approx(
                    np.trace(K - Lk), abs=1e-8 * np.trace(K)
                )

    def test_trail_nonincreasing_nonnegative(self):
        K = random_psd(30, 12)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=30)
        trail = F.trace_residual_trail
        assert np.all(trail >= -1e-12 * np.trace(K))
        assert np.all(np.diff(trail) <= 1e-10 * np.trace(K))

    def test_trace_tolerance_stopping(self):
        K = random_psd(40, 13)
        tol = 0.05 * np.trace(K)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), trace_tol=tol)
        assert F.trace_residual_trail[-1] <= tol
        assert F.rank < 40
        for bad in (math.nan, -1.0):  # neither may run on to max_rank in silence
            with pytest.raises(ConfigError, match="trace_tol must be"):
                pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=5, trace_tol=bad)

    def test_row_budget(self):
        # the oracle gets 1-D arrays of distinct indices, every pivot's row is
        # among them, and a rank-p factor evaluates at most one row per pivot
        # plus one candidate set per panel; K is never materialized
        K = random_psd(100, 14)
        for p in (6, 70):
            oracle, calls = counting_oracle(K)
            F = pivoted_ichol(oracle, materialized_diag(K), max_rank=p)
            assert F.rank == p
            for idx in calls:
                assert idx.ndim == 1 and np.unique(idx).size == idx.size
            assert set(F.selection.indices.tolist()) <= set(np.concatenate(calls).tolist())
            budget = p + math.ceil(p / lowrank.PANEL) * min(lowrank.CANDIDATES, 100)
            assert sum(idx.size for idx in calls) <= budget

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_diagonal_is_named(self, bad):
        # a NaN floor failed every pivot > floor test: nystrom returned an
        # all-zero factor, nested_factor a 4 x 0 one and pivoted_ichol
        # reported a zero diagonal
        K = np.eye(4)
        K[2, 2] = bad
        calls = [
            lambda: nystrom(K, ColumnSelection(np.array([0, 1]), "uniform-random", 4)),
            lambda: nested_factor(K, None),
            lambda: pivoted_ichol(make_column_oracle(K), np.diag(K), max_rank=3),
        ]
        for call in calls:
            with pytest.raises(DataError, match=f"diagonal entry 2 is {bad!r}"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("candidates", [lowrank.CANDIDATES, 1])
    def test_non_finite_kernel_row_is_named(self, bad, candidates, monkeypatch):
        # a NaN at K[3, 17] of a 30-point grid Gram gave pivoted_ichol rank 27
        # and nystrom a factor with 14 NaNs, with no error. The oracle reads
        # column 17 as row 17, so the entry is (17, 3) of the rows it returns.
        # The default pool fetches row 17 in a panel; a one-row pool in a
        # one-row call.
        monkeypatch.setattr(lowrank, "CANDIDATES", candidates)
        K = gram(np.arange(30) / 30, KernelSpec.periodic_poly(4))
        K[3, 17] = bad
        message = re.escape(f"kernel matrix entry (17, 3) is {bad!r}")
        oracle, calls = counting_oracle(K)
        with pytest.raises(DataError, match=message):
            pivoted_ichol(oracle, materialized_diag(K), max_rank=30)
        assert 17 in calls[-1] and (calls[-1].size == 1) == (candidates == 1)
        with pytest.raises(DataError, match=message):
            nystrom(K, ColumnSelection(np.arange(30)[::-1], "uniform-random", 30))

    def test_breakdown_on_inconsistent_diag(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NumericalError):
            pivoted_ichol(make_column_oracle(K), np.array([1.0, 1.0]), max_rank=2)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_collapse_floor_scales_with_the_diagonal(self, scale):
        # the floor is PINV_RTOL * max(diag): a rank-5 K keeps rank 5 and the
        # same pivots at any scale, where a floor that ignored the scale
        # (or divided by it) would stop early or pivot on rounding
        B = np.random.default_rng(0).normal(size=(40, 5))
        K = B @ B.T
        want = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=40)
        assert want.rank == 5
        F = pivoted_ichol(make_column_oracle(scale * K), materialized_diag(scale * K), max_rank=40)
        assert F.rank == 5
        assert np.array_equal(F.selection.indices, want.selection.indices)
        assert nested_factor(scale * K, None).shape == (40, 5)

    def test_tie_break_smallest_index(self):
        K = np.eye(5)
        F = pivoted_ichol(make_column_oracle(K), np.ones(5), max_rank=3)
        assert F.selection.indices.tolist() == [0, 1, 2]


def counting_oracle(K):
    """Row oracle over K that records the index array of every call."""
    rows, calls = make_column_oracle(K), []

    def oracle(idx):
        calls.append(np.array(idx))
        return rows(idx)

    return oracle, calls


def reference_pivot_order(K, max_rank=None, trace_tol=None):
    """Pivot order of the column-major pivoted Cholesky loop that
    ``pivoted_ichol`` replaced (n x max_rank storage, column updates)."""
    d = np.diag(K).astype(float).copy()
    n = d.size
    pmax = n if max_rank is None else min(max_rank, n)
    phi = np.zeros((n, pmax))
    pivots = []
    for k in range(pmax):
        j = int(np.argmax(d))
        if d[j] <= 0.0:
            break
        phi[:, k] = (K[:, j] - phi[:, :k] @ phi[j, :k]) / np.sqrt(d[j])
        d -= phi[:, k] ** 2
        d[j] = 0.0
        np.clip(d, 0.0, None, out=d)
        pivots.append(j)
        if trace_tol is not None and np.sum(d) <= trace_tol:
            break
    return pivots


def gaussian_instance(n=300, dim=3, seed=0, bandwidth=1.5):
    X = np.random.default_rng(seed).standard_normal((n, dim))
    spec = KernelSpec.gaussian(bandwidth)
    oracle = lambda idx: cross_gram(X[idx], X, spec)
    return X, spec, oracle


class TestPivotedFactorLayout:
    def test_feature_map_reproduces_phi(self):
        # the whitener maps kernel evaluations onto Phi's own basis, so the
        # feature map of the training points is Phi itself, not a rotation
        X, spec, oracle = gaussian_instance()
        F = pivoted_ichol(oracle, np.ones(X.shape[0]), trace_tol=1e-3 * X.shape[0])
        assert F.rank > 40
        feats = feature_matrix(spec, X[F.selection.indices], F.whitener, X)
        assert np.max(np.abs(feats - F.phi)) <= 1e-10 * np.max(np.abs(F.phi))

    def test_whitener_is_inverse_transpose_of_pivot_rows(self):
        K = random_psd(30, 16)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=9)
        L = F.phi[F.selection.indices]
        assert np.allclose(np.triu(L, 1), 0.0, atol=1e-12)
        assert np.all(np.diag(L) > 0)
        assert np.allclose(F.whitener.T @ L, np.eye(9), atol=1e-10)

    def test_phi_holds_exactly_its_rows(self):
        # row-major p x n storage trimmed to the rank, even with a large reserve
        X, _, oracle = gaussian_instance(n=200)
        F = pivoted_ichol(oracle, np.ones(200), max_rank=200, trace_tol=0.05 * 200)
        assert F.rank < 200
        assert F.phi.shape == (200, F.rank)
        assert F.phi.T.flags.c_contiguous
        assert F.phi.base.nbytes == F.phi.nbytes

    def test_pivot_order_matches_reference_loop(self):
        cases = [
            (random_psd(32, 8, cond_floor=1e-4), 32, None),
            (random_psd(12, 9), 1, None),
            (random_psd(40, 10), 13, None),
            (random_psd(16, 16), 16, None),
            (random_psd(64, 64), 20, None),
            (random_psd(128, 128), 20, None),
            (random_psd(30, 12), 30, None),
            (random_psd(25, 14), 6, None),
            (random_psd(30, 21), 8, None),
            (random_psd(14, 30), 5, None),
            (np.eye(5), 3, None),
        ]
        K40 = random_psd(40, 13)
        cases.append((K40, None, 0.05 * np.trace(K40)))
        X, spec, _ = gaussian_instance()
        Kg = cross_gram(X, X, spec)
        cases.append((Kg, None, 1e-3 * X.shape[0]))
        for K, max_rank, tol in cases:
            F = pivoted_ichol(
                make_column_oracle(K), materialized_diag(K), max_rank=max_rank, trace_tol=tol
            )
            assert F.selection.indices.tolist() == reference_pivot_order(K, max_rank, tol)


def reference_greedy_nested(K, rel_tol=1e-12):
    """The column-major greedy order and nested factor that the shared loop
    replaced: a full-depth greedy pass for the order, then the factor
    rebuilt column by column in that order."""
    n = K.shape[0]
    d = np.diag(K).astype(float).copy()
    floor = rel_tol * float(np.max(d))
    phi = np.zeros((n, n))
    order = np.empty(n, dtype=int)
    used = np.zeros(n, dtype=bool)
    for k in range(n):
        j = int(np.argmax(np.where(used, -np.inf, d)))
        order[k] = j
        used[j] = True
        if d[j] > floor:
            phi[:, k] = (K[:, j] - phi[:, :k] @ phi[j, :k]) / np.sqrt(d[j])
            d -= phi[:, k] ** 2
            np.clip(d, 0.0, None, out=d)
        d[j] = 0.0
    d = np.diag(K).astype(float).copy()
    rebuilt = np.zeros((n, n))
    for k, j in enumerate(order):
        if d[j] <= floor:
            continue
        rebuilt[:, k] = (K[:, j] - rebuilt[:, :k] @ rebuilt[j, :k]) / np.sqrt(d[j])
        d -= rebuilt[:, k] ** 2
        np.clip(d, 0.0, None, out=d)
        d[j] = 0.0
    return order, rebuilt


def low_rank_psd(n, rank, seed):
    """B B^T with B n x rank and column scales in [0.1, 1]: rank-deficient
    whenever rank < n, and free of exact ties in the residual diagonal."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, rank)) * rng.uniform(0.1, 1.0, size=rank)
    return B @ B.T


FACTOR_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
instances = dict(n=st.integers(2, 24), rank=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))


class TestSharedCholeskyLoop:
    @FACTOR_SETTINGS
    @given(p=st.integers(1, 24), **instances)
    def test_three_factors_agree_on_one_index_set(self, p, n, rank, seed):
        K = low_rank_psd(n, min(rank, n), seed)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=min(p, n))
        direct = direct_nystrom(K, F.selection.indices)
        nested = nested_factor(K, F.selection.indices)
        scale = np.linalg.norm(direct)
        assert np.linalg.norm(F.gram() - direct) <= 1e-8 * scale
        assert np.linalg.norm(nested @ nested.T - direct) <= 1e-8 * scale
        # a factor is its ordered index set: the same loop rebuilds it exactly
        rebuilt = nystrom(K, F.selection)
        assert np.array_equal(rebuilt.phi, F.phi)
        assert np.array_equal(rebuilt.whitener, F.whitener)

    @FACTOR_SETTINGS
    @given(**instances)
    def test_greedy_nested_sweep_leads_with_pivoted_ichol(self, n, rank, seed):
        K = low_rank_psd(n, min(rank, n), seed)
        sweep = nested_factor(K, None)
        order, reference = reference_greedy_nested(K)
        k = sweep.shape[1]
        assert k == min(rank, n)
        for p in sorted({1, (k + 1) // 2, k}):
            F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=p)
            assert np.array_equal(sweep[:, :p], F.phi)
            assert F.selection.indices.tolist() == order[:p].tolist()
        assert np.max(np.abs(sweep - reference[:, :k])) <= 1e-12 * np.max(np.abs(reference))
        assert not np.any(reference[:, k:])

    @FACTOR_SETTINGS
    @given(p=st.integers(1, 24), **instances)
    def test_save_load_round_trip_bit_exact(self, tmp_path_factory, p, n, rank, seed):
        K = low_rank_psd(n, min(rank, n), seed)
        pivoted = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=min(p, n))
        sampled = nystrom(K, sample_columns(n, min(p, n), seed))
        for F in (pivoted, sampled):
            path = tmp_path_factory.mktemp("factor") / "factor.csv"
            save_factor(path, F)
            G = load_factor(path)
            assert np.array_equal(F.phi, G.phi)
            assert np.array_equal(F.whitener, G.whitener)
            assert np.array_equal(F.selection.indices, G.selection.indices)
            assert G.selection.method == F.selection.method
            if F.trace_residual_trail is None:
                assert G.trace_residual_trail is None
            else:
                assert np.array_equal(F.trace_residual_trail, G.trace_residual_trail)

    @pytest.mark.parametrize(
        "kind, n, rank, seed",
        [
            ("low-rank", 80, 45, 1),
            ("low-rank", 96, 70, 2),
            ("low-rank", 120, 100, 3),
            ("gaussian", 100, 70, 0),
            ("gaussian", 90, 70, 2),
        ],
    )
    def test_panels_keep_the_greedy_factor(self, kind, n, rank, seed):
        # n > CANDIDATES and rank > PANEL, so pivots both hit and miss the
        # carried pool over several panels; the factor is still the
        # reference loop's, and a fixed order still replays it bit for bit
        K, max_rank = panel_instance(kind, n, rank, seed)
        diag = materialized_diag(K)
        oracle, calls = counting_oracle(K)
        F = pivoted_ichol(oracle, diag, max_rank=max_rank or n)
        p, panel = F.rank, lowrank.PANEL
        assert p > panel
        rebuilt = nystrom(K, F.selection)
        assert np.array_equal(rebuilt.phi, F.phi)
        assert np.array_equal(rebuilt.whitener, F.whitener)
        sweep = nested_factor(K, None)
        for q in (panel - 1, panel, panel + 1, p):
            G = pivoted_ichol(make_column_oracle(K), diag, max_rank=q)
            assert np.array_equal(sweep[:, :q], G.phi)
        pivots = F.selection.indices.tolist()
        assert pivots == reference_pivot_order(K, p)
        _, reference = reference_greedy_nested(K)
        assert np.max(np.abs(F.phi - reference[:, :p])) <= 1e-12 * np.max(np.abs(reference))
        # replay the pool from the factor's own residual diagonal: after each
        # panel start it holds the m largest residual diagonals, and only the
        # rows new to it go to the oracle, in one call, before the misses
        m = lowrank.CANDIDATES
        assert n > m
        d, pool, first_seen = diag.astype(float), set(), {}
        expected, panel_calls, hits, misses = [], [], [], []
        for k, j in enumerate(pivots):
            if k % panel == 0:
                cand = set(np.argpartition(d, n - m)[n - m :].tolist())
                if cand - pool:
                    expected.append(cand - pool)
                    panel_calls.append(len(cand - pool))
                first_seen.update((c, k // panel) for c in cand - pool)
                pool = cand
            if j in pool:
                hits.append(k)
            else:
                misses.append(k)
                expected.append({j})
            d -= F.phi[:, k] ** 2
            d[j] = 0.0
            np.clip(d, 0.0, None, out=d)
        assert [set(idx.tolist()) for idx in calls] == expected
        assert any(k >= panel for k in hits)
        assert misses
        # some pivot's row was evaluated in an earlier panel and carried, and
        # some panel asked the oracle for fewer than m rows
        assert any(first_seen[pivots[k]] < k // panel for k in hits)
        assert panel_calls[0] == m and any(size < m for size in panel_calls)

    @pytest.mark.parametrize("seed", [8, 9, 10, 12])
    def test_fixed_order_matches_reference_on_full_rank(self, seed):
        K = random_psd(32, seed, cond_floor=1e-3)
        order, reference = reference_greedy_nested(K)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=32)
        assert F.selection.indices.tolist() == order.tolist()
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(nested_factor(K, order) - reference)) <= 1e-12 * scale
        assert np.max(np.abs(nested_factor(K, None) - reference)) <= 1e-12 * scale


def panel_instance(kind, n, rank, seed):
    """K with n > CANDIDATES and its pivot budget (None: to the collapse floor)."""
    if kind == "low-rank":
        return low_rank_psd(n, rank, seed), None
    X = np.random.default_rng(seed).standard_normal((n, 3))
    return cross_gram(X, X, KernelSpec.gaussian(1.5)), rank


def nested_sweep_factors(n, rank, seed):
    """A rank-deficient K with its two nested factors: a fixed random order,
    whose columns past the rank collapse to zero, and the greedy one, which
    stops at the numerical rank and so is shorter than a 1..n rank grid."""
    K = low_rank_psd(n, min(rank, n), seed)
    order = np.random.default_rng(seed).permutation(n)
    return K, (nested_factor(K, order), nested_factor(K, None))


class TestPrefixSweeps:
    """One-factorization prefix sweeps against the per-rank reference paths."""

    @FACTOR_SETTINGS
    @given(log_lam=st.floats(-6, 0), sigma2=st.floats(0, 2), **instances)
    def test_prefix_spectra_match_thin_svd(self, log_lam, sigma2, n, rank, seed):
        K, factors = nested_sweep_factors(n, rank, seed)
        z = np.random.default_rng(seed).normal(size=n)
        lam = 10.0**log_lam * np.trace(K) / n
        for phi in factors:
            prefix = Spectrum.prefixes(phi, z)
            for p in range(1, n + 1):
                got, want = prefix(p), Spectrum.lowrank(phi[:, :p], z)
                for a, b in zip(got.bias_variance(sigma2, lam), want.bias_variance(sigma2, lam)):
                    assert a == pytest.approx(b, rel=1e-10, abs=1e-14)
                # d_trace and d_ave; a prefix spectrum has no d_max
                for a, b in zip(got.terms([lam])[1:, 0], want.dof(lam)[1:]):
                    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    @FACTOR_SETTINGS
    @given(**instances)
    def test_lanczos_operator_norms_match_dense(self, n, rank, seed):
        K, factors = nested_sweep_factors(n, rank, seed)
        tr = np.trace(K)
        ranks = list(range(1, n + 1))
        for phi in factors:
            tr_errs, op_errs = prefix_errors(K, phi, ranks)
            for p, tr_err, op_err in zip(ranks, tr_errs, op_errs):
                resid = K - phi[:, :p] @ phi[:, :p].T
                want_tr = np.trace(resid)
                want_op = np.linalg.norm(resid, 2)
                assert abs(tr_err - want_tr) <= 1e-12 * tr
                if want_tr > 1e-10 * tr:
                    assert abs(op_err - want_op) <= 1e-10 * want_op
                else:
                    assert abs(op_err - want_op) <= 1e-10 * tr

    def test_reruns_identical_and_ranks_capped(self):
        K, (_, greedy) = nested_sweep_factors(40, 12, 3)
        assert greedy.shape[1] == 12
        ranks = [1, 2, 5, 12, 20, 40]
        first = prefix_errors(K, greedy, ranks)
        again = prefix_errors(K, greedy, ranks)
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        capped = prefix_errors(K, greedy, [12])
        assert first[0][-1] == first[0][3] == capped[0][0]
        assert first[1][-1] == first[1][3] == capped[1][0]
        # -1 would pair the full factor's trace error with a rank-11 operator error
        for bad in ([-1], [2.5]):
            with pytest.raises(ConfigError, match="rank must be"):
                prefix_errors(K, greedy, bad)

    def test_prefix_spectrum_has_no_dof(self):
        # a prefix spectrum keeps no eigenvectors, so it knows no leverage:
        # dof must not read it as a circulant one, where d_max = d_trace
        K, (random_order, _) = nested_sweep_factors(30, 30, 4)
        z = np.random.default_rng(5).normal(size=30)
        spec = Spectrum.prefixes(random_order, z)(6)
        assert spec.basis is None and spec.weight is None
        with pytest.raises(ConfigError, match="leverage"):
            spec.dof(1e-3 * np.trace(K) / 30)

    def test_short_factor_keeps_its_residual_past_n(self):
        # a greedy factor that stops at rank 5 < n: every prefix of at least
        # 5 columns, p = n and beyond included, is the whole factor and
        # leaves z_perp outside its span
        K, (_, greedy) = nested_sweep_factors(30, 5, 6)
        assert greedy.shape[1] == 5
        z = np.random.default_rng(7).normal(size=30)
        want = Spectrum.lowrank(greedy, z)
        assert want.resid2 > 0.1 * (z @ z)
        prefix = Spectrum.prefixes(greedy, z)
        for p in (5, 29, 30, 40):
            got = prefix(p)
            assert got.resid2 == pytest.approx(want.resid2, rel=1e-10)
            assert got.bias_variance(0.5, 1e-3) == pytest.approx(want.bias_variance(0.5, 1e-3), rel=1e-10)


class TestTriangularInverse:
    @FACTOR_SETTINGS
    @given(p=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(p=63, seed=1)  # the direct base case, odd
    @example(p=65, seed=2)  # one split into 32 + 33
    @example(p=299, seed=3)  # three levels of odd splits
    def test_inverse_within_rounding(self, p, seed):
        # a Cholesky factor's transpose with column scales over 3 decades,
        # the kind of matrix the whitener inverts
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(p + 3, p)) * 10.0 ** rng.uniform(-3, 0, size=p)
        U = np.linalg.cholesky(B.T @ B).T
        W = _triu_inv(U)
        eps = np.finfo(float).eps
        bound = 10 * p * eps * np.linalg.norm(W, 2) * np.linalg.norm(U, 2)
        assert np.linalg.norm(W @ U - np.eye(p), 2) <= bound
        assert not np.any(np.tril(W, -1))


class TestTopEig:
    @FACTOR_SETTINGS
    @given(n=st.integers(2, 160), p=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    @example(n=150, p=3, seed=5)  # n past the old 120-vector space
    def test_matches_dense_on_psd_residuals(self, n, p, seed):
        K = random_psd(n, seed)
        phi = nested_factor(K, np.random.default_rng(seed).permutation(n)[: min(p, n)])
        R = K - phi @ phi.T
        want = np.linalg.eigvalsh(R)[-1]
        assume(want > 1e-10 * np.trace(K))  # prefix_errors takes the dense path below it
        v0 = np.random.default_rng(seed + 1).normal(size=n)
        theta, vec = _top_eig(lambda x: R @ x, v0)
        assert abs(theta - want) <= 1e-12 * want
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)

    @staticmethod
    def evenly_spaced(n, seed, top_pair_gap=None):
        """R with eigenvalues linspace(0, 1, n), the second moved to 1 - top_pair_gap if given, and q."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.linspace(0.0, 1.0, n)
        if top_pair_gap is not None:
            lam[-2] = 1.0 - top_pair_gap
        return (q * lam) @ q.T, q, rng

    @staticmethod
    def counted(R):
        calls = []

        def matvec(x):
            calls.append(1)
            return R @ x

        return matvec, calls

    def test_space_grows_past_120_vectors_within_n_matvecs(self):
        # evenly spaced eigenvalues leave the top one a relative gap of
        # 1 / (n - 1): full precision needs more Krylov vectors than the
        # 120 of a restarted space, and never more than n
        n = 500
        R, _, rng = self.evenly_spaced(n, 11)
        matvec, calls = self.counted(R)
        theta, vec = _top_eig(matvec, rng.normal(size=n))
        lam = np.linalg.eigvalsh(R)
        assert 120 < len(calls) <= n
        assert abs(theta - lam[-1]) <= 1e-12 * lam[-1]
        # the gap rule's promise for the vector: r^2 <= eps theta (theta - theta_2)
        # on the Ritz gap, which interlacing (theta_2 <= lambda_2) can make wider
        # than the true one; c = 2 lets theta_2 lag lambda_2 by a whole gap
        eps = np.finfo(float).eps
        residual = np.linalg.norm(R @ vec - theta * vec)
        assert residual**2 <= 2 * eps * theta * (lam[-1] - lam[-2])

    def test_the_gap_clause_stops_before_the_vector_converges(self):
        # the vector test alone takes 144 matvecs on this operator
        n = 300
        R, _, rng = self.evenly_spaced(n, 11)
        matvec, calls = self.counted(R)
        theta, _ = _top_eig(matvec, rng.normal(size=n))
        want = np.linalg.eigvalsh(R)[-1]
        assert len(calls) <= 120
        assert abs(theta - want) <= 1e-12 * want

    def test_a_near_tie_costs_at_most_its_gap(self):
        # a top pair 1e-9 apart that the Krylov space cannot yet tell apart:
        # the Ritz gap to the next value overstates the true gap, so theta may
        # be either of the pair or between them, but not outside, up to the
        # rule's eps theta and the rounding of R and its products (10 eps
        # over seeds 0-9), far below the 1e-9 gap
        n = 300
        gap = 1e-9
        R, q, rng = self.evenly_spaced(n, 11, top_pair_gap=gap)
        g = np.random.default_rng(0).standard_normal(n)
        g /= np.linalg.norm(g)
        tol = 1e-13
        warm = q[:, -2] + lowrank.LANCZOS_MIX * g  # a warm start on the lower one, as prefix_errors makes
        for v0 in (warm, rng.normal(size=n)):
            theta, _ = _top_eig(lambda x: R @ x, v0)
            assert 1.0 - gap - tol <= theta <= 1.0 + tol

    def test_one_ritz_value_has_no_gap(self, monkeypatch):
        # checked after every step, the first step has a single Ritz value:
        # only the residual test applies there, which a start on the second
        # eigenvector plus 1e-9 of the first fails (r = 5e-10); a gap taken
        # to 0 would accept theta = 0.5 at once
        monkeypatch.setattr(lowrank, "LANCZOS_CHECK", 1)
        n = 40
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.concatenate((rng.uniform(0.0, 0.4, n - 2), [0.5, 1.0]))
        R = (q * lam) @ q.T
        matvec, calls = self.counted(R)
        theta, _ = _top_eig(matvec, q[:, -2] + 1e-9 * q[:, -1])
        assert len(calls) > 1
        assert abs(theta - 1.0) <= 1e-12

    def test_dense_path_only_where_the_trace_is_rounding(self, monkeypatch):
        # every rank whose trace error is above LANCZOS_RTOL * tr K gets
        # Lanczos; on a full random-order factor only p = n is below it
        n = 60
        K = random_psd(n, 7)
        phi = nested_factor(K, np.random.default_rng(7).permutation(n))
        ranks = list(range(1, n + 1))
        calls = []

        def dense(A, factor):
            calls.append(factor.shape[1])
            return approx_error(A, factor)

        monkeypatch.setattr(lowrank, "approx_error", dense)
        tr_errs, _ = prefix_errors(K, phi, ranks)
        small = [p for p, e in zip(ranks, tr_errs) if e <= lowrank.LANCZOS_RTOL * np.trace(K)]
        assert calls == small == [n]


class TestNestedFactor:
    def test_prefixes_match_nystrom(self):
        K = random_psd(30, 15)
        order = np.random.default_rng(1).permutation(30)
        phi = nested_factor(K, order)
        for p in (1, 4, 11, 30):
            direct = direct_nystrom(K, order[:p])
            assert np.linalg.norm(phi[:, :p] @ phi[:, :p].T - direct) <= 1e-8 * (
                np.linalg.norm(direct) + 1.0
            )

    def test_rank_deficient_columns_skipped(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(20, 5))
        K = B @ B.T  # rank 5
        phi = nested_factor(K, np.arange(20))
        assert np.linalg.norm(phi @ phi.T - K) <= 1e-8 * np.linalg.norm(K)
        # columns beyond the rank collapse to zero
        norms = np.linalg.norm(phi, axis=0)
        assert np.sum(norms > 1e-8) == 5
        # a selection past the rank: collapsed pivots get a zero column of
        # Phi and a zero row of the whitener, which still reproduces Phi
        idx = rng.permutation(20)[:8]
        F = nystrom(K, ColumnSelection(idx, "uniform-random", 20))
        collapsed = ~np.any(F.phi, axis=0)
        assert np.sum(collapsed) == 3
        assert not np.any(F.whitener[collapsed]) and not np.any(F.whitener[:, collapsed])
        assert np.max(np.abs(K[:, idx] @ F.whitener - F.phi)) <= 1e-12 * np.max(np.abs(F.phi))
        direct = direct_nystrom(K, idx)
        assert np.linalg.norm(F.gram() - direct) <= 1e-8 * np.linalg.norm(direct)


class TestFeatureMap:
    def test_norm_at_selected_point(self):
        rng = np.random.default_rng(3)
        pts = rng.random(18)
        spec = KernelSpec.periodic_poly(1)
        K = gram(pts, spec)
        sel = sample_columns(18, 6, 4)
        F = nystrom(K, sel)
        i = sel.indices[2]
        phi_x = feature_matrix(spec, pts[sel.indices], F.whitener, [pts[i]])[0]
        assert phi_x @ phi_x == pytest.approx(K[i, i], rel=1e-8)

    def test_feature_gram_equals_factor_gram(self):
        rng = np.random.default_rng(5)
        pts = rng.random(25)
        spec = KernelSpec.periodic_poly(1)
        K = gram(pts, spec)
        sel = sample_columns(25, 9, 6)
        F = nystrom(K, sel)
        feats = feature_matrix(spec, pts[sel.indices], F.whitener, pts)
        assert np.linalg.norm(feats @ feats.T - F.gram()) <= 1e-8 * np.linalg.norm(F.gram())

    def test_single_landmark_scalar_whitener(self):
        rng = np.random.default_rng(6)
        pts = rng.random(10)
        spec = KernelSpec.periodic_poly(2)
        K = gram(pts, spec)
        sel = ColumnSelection(np.array([4]), "uniform-random", 10)
        F = nystrom(K, sel)
        x = 0.77
        phi_x = feature_matrix(spec, pts[sel.indices], F.whitener, [x])[0]
        expected = K[4, 4] ** -0.5 * cross_gram([pts[4]], [x], spec)[0, 0]
        assert phi_x.shape == (1,)
        assert phi_x[0] == pytest.approx(expected, rel=1e-12)


class TestApproxError:
    def test_exact_factor_zero_error(self):
        K = random_psd(15, 20, cond_floor=1e-3)
        F = nystrom(K, sample_columns(15, 15, 0))
        assert approx_error(K, F) <= 1e-8 * np.trace(K)

    def test_trail_ends_at_the_trace_error(self):
        K = random_psd(30, 21)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=8)
        assert np.trace(K - F.phi @ F.phi.T) == pytest.approx(
            F.trace_residual_trail[-1], abs=1e-8 * np.trace(K)
        )

    def test_spectral_norm_of_the_residual(self):
        # the residual is PSD, so its operator norm is at most its trace
        K = random_psd(20, 22)
        F = nystrom(K, sample_columns(20, 5, 1))
        resid = K - F.phi @ F.phi.T
        assert approx_error(K, F) == pytest.approx(np.linalg.norm(resid, 2), rel=1e-12)
        assert approx_error(K, F.phi) == approx_error(K, F)
        assert approx_error(K, F) <= np.trace(resid) + 1e-12


def test_factor_save_load_round_trip(tmp_path):
    K = random_psd(14, 30)
    F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=5)
    path = tmp_path / "factor.csv"
    save_factor(path, F)
    G = load_factor(path)
    assert np.array_equal(F.phi, G.phi)
    assert np.array_equal(F.whitener, G.whitener)
    assert np.array_equal(F.selection.indices, G.selection.indices)
    assert G.selection.method == "greedy-pivoted"
    assert np.array_equal(F.trace_residual_trail, G.trace_residual_trail)


def test_factor_file_layout(tmp_path):
    F = LowRankFactor(
        phi=np.array([[1.0, 0.0], [0.5, 0.25], [-2.0, 1e-300]]),
        selection=ColumnSelection(np.array([0, 2]), "greedy-pivoted", 3),
        whitener=np.array([[1.0, 0.0], [2.0, 1.0 / 3.0]]),
        trace_residual_trail=np.array([1.5, 0.1]),
    )
    path = tmp_path / "factor.csv"
    save_factor(path, F)
    assert path.read_text() == (
        "# nyridge-factor v1\n# n=3\n# p=2\n# method=greedy-pivoted\n# indices=0;2\n"
        "# trail=1.5;0.1\n# whitener rows, then phi rows\n"
        "1.0,0.0\n2.0,0.3333333333333333\n1.0,0.0\n0.5,0.25\n-2.0,1e-300\n"
    )


def test_selection_validation():
    for idx in ([0, 0], [3, 1, 4, 1]):
        with pytest.raises(ConfigError, match="distinct"):
            ColumnSelection(np.array(idx), "uniform-random", 5)
    with pytest.raises(ConfigError):
        ColumnSelection(np.array([5]), "uniform-random", 5)
    with pytest.raises(ConfigError):
        ColumnSelection(np.array([], dtype=int), "uniform-random", 5)


class TestLoadFactorErrors:
    def saved(self, tmp_path):
        K = random_psd(6, 31)
        F = pivoted_ichol(make_column_oracle(K), materialized_diag(K), max_rank=2)
        path = tmp_path / "factor.csv"
        save_factor(path, F)
        return path, path.read_text().splitlines()

    def rewrite(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        return path

    def assert_parse_error(self, path, match):
        with pytest.raises(ParseError, match=match):
            load_factor(path)

    def test_truncated_file(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines[:3]), "missing metadata")
        self.assert_parse_error(self.rewrite(path, lines[:-1]), "expected 8 matrix rows")

    def test_missing_or_wrong_header(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines[1:]), "not a factor file")
        wrong = ["# nyridge-factor v2"] + lines[1:]
        self.assert_parse_error(self.rewrite(path, wrong), "not a factor file")
        self.assert_parse_error(self.rewrite(path, []), "not a factor file")

    def test_missing_metadata(self, tmp_path):
        path, lines = self.saved(tmp_path)
        for key in ("n", "p", "indices"):
            kept = [l for l in lines if not l.startswith(f"# {key}=")]
            self.assert_parse_error(self.rewrite(path, kept), "missing metadata")

    def test_ragged_row(self, tmp_path):
        path, lines = self.saved(tmp_path)
        lines[-1] += ",1.0"
        self.assert_parse_error(self.rewrite(path, lines), "needs 2 values")

    def test_shape_does_not_match_n_and_p(self, tmp_path):
        path, lines = self.saved(tmp_path)
        bad_p = [l if not l.startswith("# p=") else "# p=3" for l in lines]
        self.assert_parse_error(self.rewrite(path, bad_p), "expected 9 matrix rows")
        bad_n = [l if not l.startswith("# n=") else "# n=7" for l in lines]
        self.assert_parse_error(self.rewrite(path, bad_n), "expected 9 matrix rows")

    def test_ints_past_the_int64_range(self, tmp_path):
        # 400 nines ended in a bare OverflowError, 2**64 in a RuntimeWarning
        path, lines = self.saved(tmp_path)
        for key, big in (("n", "9" * 400), ("p", "9" * 400), ("indices", f"0;{2**64}")):
            bad = [l if not l.startswith(f"# {key}=") else f"# {key}={big}" for l in lines]
            self.assert_parse_error(self.rewrite(path, bad), "past the int64 range")

    def test_bad_numbers_and_indices(self, tmp_path):
        path, lines = self.saved(tmp_path)
        self.assert_parse_error(self.rewrite(path, lines[:-1] + ["0.5,abc"]), "malformed")
        bad_n = [l if not l.startswith("# n=") else "# n=six" for l in lines]
        self.assert_parse_error(self.rewrite(path, bad_n), "malformed")
        short = [l if not l.startswith("# indices=") else "# indices=0" for l in lines]
        self.assert_parse_error(self.rewrite(path, short), "need 2 entries")
        far = [l if not l.startswith("# indices=") else "# indices=0;9" for l in lines]
        self.assert_parse_error(self.rewrite(path, far), "out of range")
        for bad in ("nan", "inf", "-1e999"):
            self.assert_parse_error(self.rewrite(path, lines[:-1] + [f"0.5,{bad}"]), "not finite")
            trail = [l if not l.startswith("# trail=") else f"# trail=1.0;{bad}" for l in lines]
            self.assert_parse_error(self.rewrite(path, trail), "not finite")
