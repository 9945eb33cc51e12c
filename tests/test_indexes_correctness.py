"""Every index returns exactly the brute-force answer on every query.

This is the core invariant of the reproduction: an index is a layout +
pruning metadata, and pruning must never change results — only SO/times.
Parametrized over all 8 indexes x 3 data shapes x count/sum aggregates.
"""
import numpy as np
import pytest

from repro.core.query import AGG_SUM, query_from_dict
from repro.indexes.clustered import ClusteredIndex
from repro.indexes.flood import FloodIndex, Layout
from repro.indexes.full_scan import FullScan
from repro.indexes.grid_file import GridFile
from repro.indexes.hyperoctree import Hyperoctree
from repro.indexes.kdtree import KDTree
from repro.indexes.rstar import RStarTree
from repro.indexes.ubtree import UBTree
from repro.indexes.zorder import ZOrderIndex

N, D = 3000, 4


def _factories():
    return {
        "full_scan": lambda: FullScan(),
        "clustered": lambda: ClusteredIndex(),
        "flood": lambda: FloodIndex(layout=Layout(order=[0, 1, 2, 3], cols=[4, 4, 3])),
        "zorder": lambda: ZOrderIndex(page_size=128),
        "ubtree": lambda: UBTree(page_size=128),
        "hyperoctree": lambda: Hyperoctree(page_size=256),
        "kdtree": lambda: KDTree(page_size=128),
        "rstar": lambda: RStarTree(page_size=128),
        "grid_file": lambda: GridFile(page_size=256),
    }


def _data(kind):
    rng = np.random.default_rng(hash(kind) % 2**31)
    if kind == "uniform":
        return rng.random((N, D)) * 100
    if kind == "skewed":
        return np.column_stack(
            [rng.lognormal(0, 1.5, N), rng.exponential(5, N),
             rng.random(N) * 10, rng.normal(50, 5, N)]
        )
    # discrete: integer-valued attrs with heavy ties
    return rng.integers(0, 25, (N, D)).astype(float)


def _queries(data, n_q, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_q):
        k = int(rng.integers(1, D + 1))
        dims = rng.choice(D, size=k, replace=False)
        bounds = {}
        for dim in dims:
            a, b = np.sort(rng.choice(data[:, dim], 2))
            bounds[int(dim)] = (float(a), float(b))
        agg = AGG_SUM if rng.random() < 0.4 else "count"
        out.append(query_from_dict(D, bounds, agg=agg, agg_dim=int(rng.integers(0, D))))
    return out


@pytest.fixture(scope="module")
def built():
    """Build each index once per data kind; queries are cheap."""
    cache = {}
    for kind in ("uniform", "skewed", "discrete"):
        data = _data(kind)
        wl = _queries(data, 10, seed=1)
        cache[kind] = (data, {n: f().build(data, wl) for n, f in _factories().items()})
    return cache


@pytest.mark.parametrize("kind", ["uniform", "skewed", "discrete"])
@pytest.mark.parametrize("name", list(_factories()))
@pytest.mark.parametrize("qi", range(8))
def test_index_matches_brute_force(built, kind, name, qi):
    data, indexes = built[kind]
    q = _queries(data, 8, seed=100 + qi)[qi]
    r = indexes[name].query(q)
    m = q.mask(data)
    if q.agg == AGG_SUM:
        assert np.isclose(r.value, data[m, q.agg_dim].sum()), name
    else:
        assert r.value == m.sum(), name
    assert r.n_matched == m.sum()
    assert r.n_matched <= r.n_scanned <= N


@pytest.mark.parametrize("name", list(_factories()))
def test_point_lookup(built, name):
    """Equality predicates (OLTP-style point filters) work on every index."""
    data, indexes = built["discrete"]
    q = query_from_dict(D, {0: (7.0, 7.0), 1: (3.0, 3.0)})
    r = indexes[name].query(q)
    assert r.value == q.mask(data).sum()


@pytest.mark.parametrize("name", list(_factories()))
def test_open_ended_range(built, name):
    data, indexes = built["uniform"]
    q = query_from_dict(D, {2: (50.0, np.inf)})
    r = indexes[name].query(q)
    assert r.value == q.mask(data).sum()


@pytest.mark.parametrize("name", list(_factories()))
def test_empty_result(built, name):
    data, indexes = built["uniform"]
    q = query_from_dict(D, {0: (1e6, 2e6)})
    r = indexes[name].query(q)
    assert r.value == 0 and r.n_matched == 0


@pytest.mark.parametrize("name", list(_factories()))
def test_index_size_reported(built, name):
    _, indexes = built["uniform"]
    assert indexes[name].index_size_bytes() >= 0


@pytest.mark.parametrize("name", ["flood", "zorder", "kdtree", "hyperoctree", "rstar"])
def test_multidim_indexes_prune(built, name):
    """A tight 2-dim filter must scan well under the full table."""
    data, indexes = built["uniform"]
    q = query_from_dict(D, {0: (10.0, 20.0), 1: (10.0, 20.0)})
    r = indexes[name].query(q)
    assert r.n_scanned < N * 0.6, name


@pytest.mark.parametrize("bad, col", [
    (np.nan, 3),    # Flood's sort dimension
    (np.nan, 0),    # a Flood grid dimension
    (np.inf, 1),
    (-np.inf, 2),
])
@pytest.mark.parametrize("name", list(_factories()))
def test_non_finite_input_rejected(name, bad, col):
    """NaN and ±inf are refused at build(), with the column named, rather
    than answered wrongly (an index orders or bins by these values)."""
    data = _data("uniform")
    data[::100, col] = bad
    with pytest.raises(ValueError, match=f"column {col} "):
        _factories()[name]().build(data)
