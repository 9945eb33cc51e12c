"""Column store: scans, exact ranges, cumulative aggregates, counters."""
import numpy as np
import pytest

from repro.columnstore.store import ColumnStore
from repro.core.query import AGG_SUM, query_from_dict


@pytest.fixture
def data():
    rng = np.random.default_rng(13)
    return rng.random((1000, 3)) * 10


def test_full_range_count(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (2.0, 8.0)})
    s = st.scan([(0, 1000, False)], q)
    assert s.value == s.n_matched == q.mask(data).sum()
    assert s.n_scanned == 1000


def test_multi_range_scan(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {1: (0.0, 5.0)})
    s = st.scan([(0, 200, False), (500, 800, False)], q)
    sub = np.concatenate([data[0:200], data[500:800]])
    assert s.value == q.mask(sub).sum()
    assert s.n_scanned == 500


def test_exact_range_count_skips_checks(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (-1e9, 1e9)})
    s = st.scan([(100, 300, True)], q)
    assert s.value == 200 and s.n_exact == 200 and s.n_matched == 200


def test_exact_range_sum_uses_prefix_sums(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {}, agg=AGG_SUM, agg_dim=2)
    s = st.scan([(100, 300, True)], q)
    assert np.isclose(s.value, data[100:300, 2].sum())


def test_sum_with_filter(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (3.0, 7.0)}, agg=AGG_SUM, agg_dim=1)
    s = st.scan([(0, 1000, False)], q)
    m = q.mask(data)
    assert np.isclose(s.value, data[m, 1].sum())
    assert s.n_matched == m.sum()


def test_mixed_exact_and_filtered_ranges(data):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (0.0, 10.0)}, agg=AGG_SUM, agg_dim=0)
    s = st.scan([(0, 100, True), (100, 400, False)], q)
    assert np.isclose(s.value, data[0:400, 0].sum())  # filter matches all here
    assert s.n_exact == 100 and s.n_scanned == 400


def test_empty_and_inverted_ranges(data):
    st = ColumnStore(data)
    for q in (query_from_dict(3, {0: (0, 1)}),
              query_from_dict(3, {}, agg=AGG_SUM, agg_dim=2)):
        for ranges in ([(10, 10, False), (50, 40, True)], [],
                       np.empty((0, 3), dtype=np.int64),
                       np.array([(10, 10, True), (900, 5, False)])):
            s = st.scan(ranges, q)
            assert (s.value, s.n_scanned, s.n_matched, s.n_exact) == (0, 0, 0, 0)


RANGES = [(0, 100, True), (100, 400, False), (390, 395, False), (700, 650, False),
          (800, 1000, True), (420, 421, False)]


@pytest.mark.parametrize("agg", ["count", AGG_SUM])
def test_array_and_tuple_ranges_scan_alike(data, agg):
    st = ColumnStore(data)
    q = query_from_dict(3, {0: (2.0, 7.0), 2: (1.0, 9.0)}, agg=agg, agg_dim=1)
    a = st.scan(np.asarray(RANGES, dtype=np.int64), q)
    t = st.scan(RANGES, q)
    assert (a.value, a.n_scanned, a.n_matched, a.n_exact) == (
        t.value, t.n_scanned, t.n_matched, t.n_exact)
    pos = np.concatenate([np.arange(s, e) for s, e, _ in RANGES])
    exact = np.concatenate([np.full(max(0, e - s), x) for s, e, x in RANGES])
    m = q.mask(data[pos]) | exact
    want = m.sum() if agg == "count" else data[pos[m], 1].sum()
    assert np.isclose(a.value, want)
    assert a.n_matched == m.sum() and a.n_scanned == pos.size
    assert a.n_exact == exact.sum()


@pytest.mark.parametrize("agg", ["count", AGG_SUM])
def test_scan_gather_equals_scan_on_same_positions(data, agg):
    st = ColumnStore(data)
    q = query_from_dict(3, {1: (1.0, 6.0)}, agg=agg, agg_dim=0)
    pos = np.concatenate([np.arange(0, 50), np.arange(300, 420), [999]])
    exact = np.zeros(pos.size, dtype=bool)
    exact[:50] = True
    g = st.scan_gather(pos, exact, q)
    s = st.scan([(0, 50, True), (300, 420, False), (999, 1000, False)], q)
    assert np.isclose(g.value, s.value)
    assert (g.n_scanned, g.n_matched, g.n_exact) == (s.n_scanned, s.n_matched, s.n_exact)


def test_matrix_roundtrip(data):
    st = ColumnStore(data)
    assert np.array_equal(st.matrix(), data)


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        ColumnStore(np.zeros(5))
