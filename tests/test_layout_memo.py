"""One shared, read-only :class:`EngineLayout` per tree set.

:meth:`EngineLayout.build` returns the layout memoized by content in
:data:`repro.simulator.engine_layout.shared_layouts`, derived without a
sort over channels.  These tests pin it against the sort-based build the
engines used before (kept here as the oracle), check that every array is
read-only and that results do not depend on whether the memo was warm,
and keep every ``cache_clear``/``cache_info`` pair in ``repro`` callable
without arguments.
"""

import importlib
import pickle
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.simulator.engine_layout import (
    EngineLayout,
    GroupMembers,
    shared_layouts,
)
from repro.topology import Graph
from repro.trees import SpanningTree
from repro.utils.errors import ConstructionError

from tests.strategies import (
    get_plan,
    materialize_jobs,
    plan_keys,
    random_embedding,
    run_engine,
    seeds,
    tenant_mixes,
    topology_names,
)


def sort_based_layout(n, trees):
    """The layout as the engines built it with sorts: ``lexsort`` for the
    aggregation groups, ``np.unique`` plus two argsorts for the channels.
    The oracle of :meth:`EngineLayout.derive`."""
    T = len(trees)
    roots = np.asarray([t.root for t in trees], dtype=np.int64)
    counts = [len(t.parent) for t in trees]
    E = sum(counts)
    child = np.empty(E, dtype=np.int64)
    par = np.empty(E, dtype=np.int64)
    at = 0
    for t, k in zip(trees, counts):
        child[at : at + k] = np.fromiter(t.parent.keys(), np.int64, count=k)
        par[at : at + k] = np.fromiter(t.parent.values(), np.int64, count=k)
        at += k
    etree = np.repeat(np.arange(T, dtype=np.int64), counts)

    F = 2 * E
    flow_tree = np.repeat(etree, 2)
    flow_src = np.empty(F, dtype=np.int64)
    flow_dst = np.empty(F, dtype=np.int64)
    flow_src[0::2] = flow_dst[1::2] = child
    flow_src[1::2] = flow_dst[0::2] = par
    flow_is_reduce = np.zeros(F, dtype=bool)
    flow_is_reduce[0::2] = True
    flow_edge_key = np.minimum(flow_src, flow_dst) * n + np.maximum(
        flow_src, flow_dst
    )

    order = np.lexsort((child, par, etree))
    s_tree, s_par = etree[order], par[order]
    first = np.ones(E, dtype=bool)
    first[1:] = (s_tree[1:] != s_tree[:-1]) | (s_par[1:] != s_par[:-1])
    grp_off = np.flatnonzero(first)
    G = len(grp_off)
    sizes = np.diff(np.append(grp_off, E))
    is_multi = sizes > 1
    multi_grp = np.flatnonzero(is_multi)
    multi_off = np.cumsum(sizes[is_multi]) - sizes[is_multi]
    multi_pos = np.flatnonzero(np.repeat(is_multi, sizes))
    grp_of = np.full((T, n), -1, dtype=np.int64)
    grp_of[s_tree[first], s_par[first]] = np.arange(G, dtype=np.int64)
    up_fid = np.zeros((T, n), dtype=np.int64)
    up_fid[etree, child] = np.arange(0, F, 2, dtype=np.int64)

    src_grp = grp_of[flow_tree, flow_src]
    src_is_agg = flow_is_reduce | (flow_src == roots[flow_tree])
    avail_src = np.where(
        src_is_agg,
        np.where(src_grp >= 0, F + src_grp, F + G + flow_tree),
        up_fid[flow_tree, flow_src] + 1,
    )
    dst_grp = grp_of[flow_tree, flow_dst]
    cons_from_sent = flow_is_reduce & (flow_dst != roots[flow_tree])
    cons_idx = np.where(
        cons_from_sent,
        up_fid[flow_tree, flow_dst],
        np.where(dst_grp >= 0, F + dst_grp, np.arange(F, dtype=np.int64)),
    )
    bc_into_leaf = np.flatnonzero(~flow_is_reduce & (dst_grp < 0))

    ch_key = flow_src * n + flow_dst
    uniq, first_fid, inverse = np.unique(
        ch_key, return_index=True, return_inverse=True
    )
    rank = np.argsort(first_fid)
    C = len(uniq)
    ch_of_uniq = np.empty(C, dtype=np.int64)
    ch_of_uniq[rank] = np.arange(C, dtype=np.int64)
    flow_ch = ch_of_uniq[inverse.reshape(-1)]
    ch_key = uniq[rank]
    ch_k = np.bincount(flow_ch, minlength=C).astype(np.int64)
    gr_fid = np.argsort(flow_ch, kind="stable").astype(np.int64)
    gr_ch = flow_ch[gr_fid]
    gr_slot = np.arange(F, dtype=np.int64) - (np.cumsum(ch_k) - ch_k)[gr_ch]
    K = int(ch_k.max()) if C else 1
    slot_fid = np.full((K, C), F, dtype=np.int64)
    slot_fid[gr_slot, gr_ch] = gr_fid
    flow_slot = np.empty(F, dtype=np.int64)
    flow_slot[gr_fid] = gr_slot
    flow_prev = slot_fid[(flow_slot - 1) % ch_k[flow_ch], flow_ch]

    return EngineLayout(
        n=n,
        roots=roots,
        flow_tree=flow_tree,
        flow_src=flow_src,
        flow_dst=flow_dst,
        flow_is_reduce=flow_is_reduce,
        flow_edge_key=flow_edge_key,
        avail_src=avail_src,
        cons_idx=cons_idx,
        bc_into_leaf=bc_into_leaf,
        grp_off=grp_off,
        grp_size=sizes,
        child_up=GroupMembers(2 * order, 2 * order[grp_off], 2 * order[multi_pos]),
        child_bc=GroupMembers(
            2 * order + 1, 2 * order[grp_off] + 1, 2 * order[multi_pos] + 1
        ),
        multi_grp=multi_grp,
        multi_off=multi_off,
        root_grp=grp_of[np.arange(T), roots],
        ch_src=ch_key // n,
        ch_dst=ch_key % n,
        ch_k=ch_k,
        flow_ch=flow_ch,
        slot_fid=slot_fid,
        flow_slot=flow_slot,
        flow_prev=flow_prev,
        flow_shared=ch_k[flow_ch] == 2,
        rr_hops=K - 1,
    )


def assert_same_layout(got, want):
    """Array for array: values, dtype and shape; then the scalars."""
    a, b = got.arrays(), want.arrays()
    assert len(a) == len(b)
    for i, (x, y) in enumerate(zip(a, b)):
        assert x.dtype == y.dtype and x.shape == y.shape, i
        assert np.array_equal(x, y), i
    assert (got.n, got.rr_hops) == (want.n, want.rr_hops)


def _reinserted(tree, rng):
    items = list(tree.parent.items())
    order = rng.permutation(len(items))
    return SpanningTree(tree.root, {items[i][0]: items[i][1] for i in order})


@st.composite
def tree_sets(draw):
    """(graph, trees): a plan's or a random embedding's trees with
    shuffled parent dicts, then a subset, the reversed set, or the set
    with a tree repeated."""
    if draw(st.booleans()):
        g, trees = random_embedding(
            draw(topology_names()), draw(st.integers(1, 4)), draw(seeds())
        )
    else:
        plan = get_plan(*draw(plan_keys()))
        g, trees = plan.topology, plan.trees
    rng = np.random.default_rng(draw(seeds()))
    trees = [_reinserted(t, rng) if draw(st.booleans()) else t for t in trees]
    shape = draw(st.sampled_from(("subset", "reversed", "repeated", "whole")))
    if shape == "subset":
        trees = draw(st.lists(st.sampled_from(trees), unique_by=id, max_size=6))
    elif shape == "reversed":
        trees = trees[::-1]
    elif shape == "repeated":
        trees = trees + [trees[draw(st.integers(0, len(trees) - 1))]]
    return g, trees


@settings(max_examples=80, deadline=None)
@given(emb=tree_sets(), cold=st.booleans())
def test_built_layout_equals_the_sort_based_oracle(emb, cold):
    g, trees = emb
    if cold:
        shared_layouts.cache_clear()
    lay = EngineLayout.build(g, trees)
    assert_same_layout(lay, sort_based_layout(g.n, trees))
    assert not any(a.flags.writeable for a in lay.arrays())
    assert_same_layout(EngineLayout.derive(g, trees), lay)


def test_equal_tree_sets_share_one_layout_object():
    plan = get_plan(5, "low-depth")
    shared_layouts.cache_clear()
    lay = EngineLayout.build(plan.topology, plan.trees)
    # new tree objects with equal content: the same layout
    copies = [pickle.loads(pickle.dumps(t)) for t in plan.trees]
    assert EngineLayout.build(plan.topology, copies) is lay
    # a different insertion order is a different key
    rng = np.random.default_rng(0)
    other = EngineLayout.build(plan.topology, [_reinserted(t, rng) for t in copies])
    assert other is not lay
    info = shared_layouts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    with pytest.raises(ValueError, match="read-only"):
        lay.flow_src[0] = 1


def test_memo_is_bounded_in_bytes_and_holds_no_oversized_layout():
    budget = shared_layouts.max_bytes
    shared_layouts.cache_clear()
    big = get_plan(19, "low-depth")
    lay = EngineLayout.build(big.topology, big.trees)
    assert sum(a.nbytes for a in lay.arrays()) > budget
    assert shared_layouts.cache_info().currsize == 0
    assert EngineLayout.build(big.topology, big.trees) is not lay
    assert not any(a.flags.writeable for a in lay.arrays())
    # many small layouts: the least recently used go first
    plan = get_plan(11, "low-depth")
    built = [
        EngineLayout.build(plan.topology, plan.trees[i : i + k])
        for k in (1, 2, 3, 5, 8, 11)
        for i in range(len(plan.trees) - k + 1)
    ]
    info = shared_layouts.cache_info()
    assert 0 < info.currsize < len(built) and info.nbytes <= budget
    last = plan.trees[-11:]
    assert EngineLayout.build(plan.topology, last) is built[-1]


def test_a_tree_off_the_graph_is_named():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ConstructionError, match="not a physical link"):
        EngineLayout.derive(g, [SpanningTree(0, {1: 0, 2: 0})])
    with pytest.raises(ConstructionError, match="covers 2 of 3"):
        EngineLayout.derive(g, [SpanningTree(0, {1: 0})])


def test_the_key_tells_roots_and_insertion_orders_apart():
    """Root plus insertion-order edges fix a tree's ``(child, parent)``
    pairs: re-rooting the same edges or reordering the same dict builds
    another layout, equal content shares one."""
    path = SpanningTree.from_path([0, 1, 2, 3])  # rooted at 1
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    shared_layouts.cache_clear()
    lay = EngineLayout.build(g, [path])
    same = SpanningTree(path.root, dict(path.parent))
    assert EngineLayout.build(g, [same]) is lay
    rerooted = SpanningTree.from_path([0, 1, 2, 3], root_index=2)
    reordered = SpanningTree(path.root, dict(reversed(path.parent.items())))
    for other in (rerooted, reordered):
        got = EngineLayout.build(g, [other])
        assert got is not lay
        assert_same_layout(got, sort_based_layout(4, [other]))


@settings(max_examples=25, deadline=None)
@given(
    key=plan_keys(),
    m=st.integers(1, 120),
    mix=tenant_mixes(max_tenants=3, max_m=40),
    mode=st.sampled_from(("shared", "partitioned")),
)
def test_results_do_not_depend_on_a_warm_memo(key, m, mix, mode):
    from repro.simulator import BatchedCycleSimulator, LaneSpec
    from repro.tenancy import place_jobs, simulate_tenants

    plan = get_plan(*key)
    parts = plan.partition(m)
    jobs = materialize_jobs(mix, plan.num_trees, mode)

    def results():
        out = [
            run_engine(e, plan.topology, plan.trees, parts) for e in ("fast", "leap")
        ]
        out.append(
            BatchedCycleSimulator(
                plan.topology,
                plan.trees,
                lanes=[LaneSpec(parts), LaneSpec(parts, link_capacity=2)],
            ).run_batch()
        )
        if jobs:
            fplan = place_jobs(key[0], jobs, key[1], mode=mode)
            out.append(simulate_tenants(fplan, policy="fair-share"))
        return pickle.dumps(out)

    shared_layouts.cache_clear()
    cold = results()
    assert results() == cold  # every layout now a memo hit
    assert shared_layouts.cache_info().hits > 0
    shared_layouts.cache_clear()
    assert results() == cold


def _repro_modules():
    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        mods.append(importlib.import_module(info.name))
    return mods


def test_every_cache_pair_is_callable_without_arguments():
    """Cache resets (perfbench's among them) call ``cache_clear()`` on
    every ``repro`` module attribute having both ``cache_clear`` and
    ``cache_info``, so each such pair must take no arguments."""
    found = 0
    for mod in _repro_modules():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(
                obj, "cache_info"
            ):
                obj.cache_info()
                obj.cache_clear()
                found += 1
    assert found and shared_layouts.cache_info().currsize == 0
