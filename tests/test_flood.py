"""Flood index: correctness vs brute force, exactness, flattening, layouts."""
import numpy as np
import pytest

from repro.core.query import AGG_SUM, Query, query_from_dict
from repro.indexes.flood import PLM_MIN_CELL, FloodIndex, Layout, default_layout


def make_data(kind, n=4000, d=4, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((n, d)) * 100
    if kind == "skewed":
        return np.column_stack(
            [rng.lognormal(0, 1.5, n) for _ in range(d - 1)] + [rng.random(n)]
        )
    if kind == "correlated":
        a = rng.random(n) * 50
        return np.column_stack([a, a + rng.normal(0, 2, n), rng.random(n) * 9, rng.random(n)])
    raise ValueError(kind)


def rand_query(data, rng, k=None, agg="count"):
    n, d = data.shape
    k = k or rng.integers(1, d + 1)
    dims = rng.choice(d, size=k, replace=False)
    bounds = {}
    for dim in dims:
        a, b = np.sort(rng.choice(data[:, dim], 2))
        bounds[int(dim)] = (float(a), float(b))
    return query_from_dict(d, bounds, agg=agg, agg_dim=int(rng.integers(0, d)))


@pytest.mark.parametrize("kind", ["uniform", "skewed", "correlated"])
@pytest.mark.parametrize("flatten", [True, False])
def test_count_matches_brute_force(kind, flatten):
    data = make_data(kind)
    layout = Layout(order=[0, 1, 2, 3], cols=[4, 3, 5], flatten=flatten)
    idx = FloodIndex(layout=layout).build(data)
    rng = np.random.default_rng(42)
    for _ in range(15):
        q = rand_query(data, rng)
        r = idx.query(q)
        expect = int(q.mask(data).sum())
        assert r.value == expect and r.n_matched == expect


@pytest.mark.parametrize("kind", ["uniform", "skewed"])
def test_sum_matches_brute_force(kind):
    data = make_data(kind, seed=3)
    idx = FloodIndex(layout=Layout(order=[2, 0, 3, 1], cols=[5, 5, 2])).build(data)
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = rand_query(data, rng, agg=AGG_SUM)
        r = idx.query(q)
        m = q.mask(data)
        assert np.isclose(r.value, data[m, q.agg_dim].sum())


def test_scanned_at_least_matched_and_bounded():
    data = make_data("uniform", seed=5)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[8, 8, 8])).build(data)
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = rand_query(data, rng)
        r = idx.query(q)
        assert r.n_matched <= r.n_scanned <= data.shape[0]


def test_grid_beats_full_scan_overhead():
    """A selective filter on a grid dim must scan far fewer points than n."""
    data = make_data("uniform", n=8000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[16, 16, 4])).build(data)
    q = query_from_dict(4, {0: (10.0, 15.0), 1: (10.0, 15.0)})
    r = idx.query(q)
    assert r.n_scanned < data.shape[0] * 0.2


def test_sort_dim_refinement_is_exact():
    """Filtering only the sort dim must scan ~only matching points."""
    data = make_data("uniform", n=8000)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    q = query_from_dict(4, {3: (20.0, 30.0)})
    r = idx.query(q)
    assert r.value == q.mask(data).sum()
    assert r.n_scanned == r.n_matched  # refinement finds precise sub-ranges
    assert r.n_exact == r.n_scanned


def test_flattening_equalizes_cells_on_skew():
    data = make_data("skewed", n=6000)
    flat = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[8, 8, 1], flatten=True)).build(data)
    raw = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[8, 8, 1], flatten=False)).build(data)
    def spread(ix):
        s = np.diff(ix.cell_starts)
        return s.max() / max(1, s.mean())
    assert spread(flat) < spread(raw)


def test_unfiltered_query_counts_everything_exactly():
    data = make_data("uniform", n=2000)
    idx = FloodIndex(layout=Layout(order=[1, 0, 3, 2], cols=[4, 4, 4])).build(data)
    r = idx.query(query_from_dict(4, {}))
    assert r.value == 2000
    assert r.n_exact == 2000  # no filters → every range exact


def test_equality_filter_on_sort_dim():
    data = make_data("uniform", n=3000).round(0)
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    v = float(data[100, 3])
    q = query_from_dict(4, {3: (v, v)})
    assert idx.query(q).value == (data[:, 3] == v).sum()


@pytest.mark.parametrize("dim", [0, 3])  # a grid dim, the sort dim
@pytest.mark.parametrize("lo, hi", [(50.0, -np.inf), (np.inf, 50.0), (60.0, 40.0)])
def test_inverted_bounds_match_nothing(dim, lo, hi):
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    r = idx.query(query_from_dict(4, {dim: (lo, hi)}))
    assert r.value == r.n_matched == r.n_scanned == 0


def test_one_dimensional_data():
    rng = np.random.default_rng(1)
    data = rng.random((1000, 1)) * 10
    idx = FloodIndex(layout=Layout(order=[0], cols=[])).build(data)
    r = idx.query(query_from_dict(1, {0: (2.0, 4.0)}))
    assert r.value == ((data[:, 0] >= 2) & (data[:, 0] <= 4)).sum()
    assert r.n_scanned == r.n_matched


def test_no_plm_fallback_binary_search():
    """Cells too small for a PLM are refined like every other cell: the
    query path never reads PLMs, so none being built changes nothing."""
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[16, 16, 4])).build(data)
    assert np.diff(idx.cell_starts).max() < PLM_MIN_CELL and not idx.plms
    rng = np.random.default_rng(11)
    for _ in range(5):
        q = rand_query(data, rng)
        assert idx.query(q).value == q.mask(data).sum()
    q = query_from_dict(4, {3: (20.0, 30.0)})
    r = idx.query(q)
    assert r.n_scanned == r.n_matched == r.n_exact == q.mask(data).sum()


def test_default_layout_valid_and_correct():
    data = make_data("uniform")
    rng = np.random.default_rng(13)
    wl = [rand_query(data, rng) for _ in range(20)]
    lay = default_layout(data, wl)
    assert sorted(lay.order) == [0, 1, 2, 3]
    idx = FloodIndex(layout=lay).build(data, wl)
    for q in wl[:5]:
        assert idx.query(q).value == q.mask(data).sum()


def test_extra_stats_present():
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    r = idx.query(query_from_dict(4, {0: (10, 60), 3: (5, 50)}))
    for key in ("proj_time", "refine_time", "total_cells", "cell_size_mean", "avg_run_len"):
        assert key in r.extra
    assert r.extra["refined"] is True
    assert r.n_cells > 0


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout(order=[0, 1, 2], cols=[4])
    with pytest.raises(ValueError):
        Layout(order=[0, 1], cols=[0])


def test_index_size_reported():
    data = make_data("uniform")
    idx = FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 4])).build(data)
    assert idx.index_size_bytes() > 0
