"""Property-based tests (hypothesis): index results == brute force for
arbitrary data shapes and query boxes; PLM/RMI invariants hold for
arbitrary sorted inputs."""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.plm import PLM
from repro.core.query import AGG_SUM, Query, query_from_dict
from repro.core.rmi import RMI
from repro.indexes.flood import FloodIndex, Layout
from repro.indexes.kdtree import KDTree
from repro.indexes.zorder import ZOrderIndex


@st.composite
def dataset_and_query(draw):
    n = draw(st.integers(50, 400))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "lognormal", "ints"]))
    if kind == "uniform":
        data = rng.random((n, d)) * 100
    elif kind == "lognormal":
        data = rng.lognormal(0, 2, (n, d))
    else:
        data = rng.integers(0, 12, (n, d)).astype(float)
    k = draw(st.integers(1, d))
    dims = rng.choice(d, size=k, replace=False)
    bounds = {}
    for dim in dims:
        a, b = np.sort(rng.choice(data[:, dim], 2))
        bounds[int(dim)] = (float(a), float(b))
    return data, query_from_dict(d, bounds)


@given(dataset_and_query())
@settings(max_examples=40, deadline=None)
def test_flood_equals_brute_force(dq):
    data, q = dq
    d = data.shape[1]
    cols = [2] * (d - 1)
    idx = FloodIndex(layout=Layout(order=list(range(d)), cols=cols)).build(data)
    assert idx.query(q).value == q.mask(data).sum()


@st.composite
def flood_edge_case(draw):
    """A small Flood layout and one query aimed at refinement's edges:
    empty cells (skewed data on equal-width columns), heavy duplicates, a
    constant sort column, d = 1, and bounds that are stored values, their
    float neighbours, ±inf, or inverted (lo > hi)."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["uniform", "skewed", "duplicates"]))
    if kind == "uniform":
        data = rng.random((n, d)) * 100
    elif kind == "skewed":
        data = rng.lognormal(0, 3, (n, d))
    else:
        data = rng.integers(0, 3, (n, d)).astype(float)
    order = draw(st.permutations(range(d)))
    if draw(st.booleans()):
        data[:, order[-1]] = data[0, order[-1]]
    layout = Layout(order=order,
                    cols=draw(st.lists(st.integers(1, 6), min_size=d - 1, max_size=d - 1)),
                    flatten=draw(st.booleans()))

    def bound(dim):
        v = float(data[draw(st.integers(0, n - 1)), dim])
        how = draw(st.sampled_from(["value", "below", "above", "-inf", "+inf"]))
        return {"value": v, "below": np.nextafter(v, -np.inf),
                "above": np.nextafter(v, np.inf), "-inf": -np.inf, "+inf": np.inf}[how]

    ranges = np.full((d, 2), [-np.inf, np.inf])
    for dim in range(d):
        if draw(st.booleans()):
            ranges[dim] = (bound(dim), bound(dim))  # lo > hi about half the time
    agg = draw(st.sampled_from(["count", AGG_SUM]))
    return data, layout, Query(ranges, agg=agg, agg_dim=draw(st.integers(0, d - 1)))


@given(flood_edge_case())
@settings(max_examples=200, deadline=None)
def test_flood_refinement_edges_match_brute_force(case):
    data, layout, q = case
    r = FloodIndex(layout=layout).build(data).query(q)
    m = q.mask(data)
    assert r.n_matched == m.sum()
    if q.agg == AGG_SUM:
        col = data[:, q.agg_dim]
        assert np.isclose(r.value, col[m].sum(), rtol=1e-9,
                          atol=1e-9 * np.abs(col).sum())
    else:
        assert r.value == m.sum()
    assert r.n_exact <= r.n_scanned
    assert r.n_matched <= r.n_scanned <= data.shape[0]


@given(dataset_and_query())
@settings(max_examples=25, deadline=None)
def test_zorder_equals_brute_force(dq):
    data, q = dq
    idx = ZOrderIndex(page_size=64).build(data)
    assert idx.query(q).value == q.mask(data).sum()


@given(dataset_and_query())
@settings(max_examples=25, deadline=None)
def test_kdtree_equals_brute_force(dq):
    data, q = dq
    idx = KDTree(page_size=32).build(data)
    assert idx.query(q).value == q.mask(data).sum()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
       st.floats(-1e6, 1e6))
@settings(max_examples=60, deadline=None)
def test_plm_lookup_exact_anywhere(vals, probe):
    v = np.sort(np.asarray(vals))
    m = PLM(v, delta=10)
    assert m.lookup_left(probe) == np.searchsorted(v, probe, side="left")
    assert m.lookup_right(probe) == np.searchsorted(v, probe, side="right")


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400))
@settings(max_examples=40, deadline=None)
def test_rmi_cdf_matches_empirical(vals):
    keys = np.asarray(vals)
    m = RMI(keys)
    srt = np.sort(keys)
    probes = np.concatenate([srt[:5], [srt[0] - 1, srt[-1] + 1]])
    expect = np.searchsorted(srt, probes, side="right") / keys.size
    assert np.allclose(m.cdf(probes), expect)
