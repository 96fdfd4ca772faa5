"""The flow-order contract of :class:`repro.simulator.engine_layout.EngineLayout`.

The vectorized engines never see the reference engine's per-channel flow
lists: they read channel order and arbitration slots from the layout,
which builds them with array operations instead of dict walks.  The round
robin visits a channel's flows in slot order, so the layout must reproduce the
reference ``CycleSimulator.channel_flows`` exactly — same channel order,
same flows per channel, same slot order — for any parent-dict insertion
order and for plans that repeat a tree (several flows on one channel).
These properties pin that contract, then run every engine on the same
trees and require pickle-identical stats.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import CycleSimulator
from repro.simulator.engine_layout import EngineLayout
from repro.topology import Graph
from repro.topology.graph import canonical_edge
from repro.trees import SpanningTree

from tests.strategies import (
    buffer_sizes,
    get_plan,
    link_capacities,
    plan_keys,
    random_embedding,
    run_engine,
    seeds,
    topology_names,
)

#: the layout's readers: the fast and leap engines and the batched lanes
VECTOR_ENGINES = ("fast", "leap", "batched")


def _reinserted(tree: SpanningTree, rng: np.random.Generator) -> SpanningTree:
    """The same tree with its parent dict built in a shuffled order."""
    items = list(tree.parent.items())
    order = rng.permutation(len(items))
    return SpanningTree(tree.root, {items[i][0]: items[i][1] for i in order})


@st.composite
def embeddings(draw):
    """(graph, trees, flits) over random embeddings and built plans, with
    shuffled parent dicts, an optional repeated tree, and zero-flit and
    tree-less cases."""
    if draw(st.booleans()):
        g, trees = random_embedding(
            draw(topology_names()), draw(st.integers(1, 3)), draw(seeds())
        )
    else:
        plan = get_plan(*draw(plan_keys()))
        g, trees = plan.topology, plan.trees
    rng = np.random.default_rng(draw(seeds()))
    trees = [_reinserted(t, rng) for t in trees]
    if draw(st.booleans()):
        trees.append(trees[draw(st.integers(0, len(trees) - 1))])
    trees = trees[: draw(st.integers(0, len(trees)))]
    m = draw(st.lists(st.integers(0, 6), min_size=len(trees), max_size=len(trees)))
    return g, trees, m


def _layout_channel_flows(lay: EngineLayout):
    out = []
    for c, ch in enumerate(lay.channels()):
        fids = lay.slot_fid[: lay.ch_k[c], c]
        out.append(
            (
                ch,
                list(
                    zip(
                        lay.flow_tree[fids].tolist(),
                        lay.flow_src[fids].tolist(),
                        lay.flow_dst[fids].tolist(),
                    )
                ),
            )
        )
    return out


def _reference_channel_flows(ref: CycleSimulator):
    return [
        (ch, [(ref.flows[f].tree, ref.flows[f].src, ref.flows[f].dst) for f in fids])
        for ch, fids in ref.channel_flows.items()
    ]


@settings(max_examples=60, deadline=None)
@given(emb=embeddings())
def test_channel_order_and_slots_match_the_reference(emb):
    g, trees, m = emb
    ref = CycleSimulator(g, trees, m)
    lay = EngineLayout.build(g, trees)
    assert _layout_channel_flows(lay) == _reference_channel_flows(ref)
    # the per-flow slots agree with the padded matrix and the flow -> channel
    # map; a channel's flows fill its first ch_k slots, the rest hold F
    F = lay.num_flows
    assert np.array_equal(lay.slot_fid[lay.flow_slot, lay.flow_ch], np.arange(F))
    filled = lay.slot_fid < F
    assert np.array_equal(
        filled, np.arange(len(lay.slot_fid))[:, None] < lay.ch_k[None, :]
    )
    assert np.array_equal(
        lay.flow_ch[lay.slot_fid.T[filled.T]],
        np.repeat(np.arange(lay.num_channels), lay.ch_k),
    )
    # flows alternate reduce/broadcast per tree edge, in reference fid order
    assert [(fl.tree, fl.src, fl.dst) for fl in ref.flows] == list(
        zip(lay.flow_tree.tolist(), lay.flow_src.tolist(), lay.flow_dst.tolist())
    )
    assert lay.flow_is_reduce.tolist() == [fl.kind == "reduce" for fl in ref.flows]


@settings(max_examples=40, deadline=None)
@given(emb=embeddings(), buf=buffer_sizes(4), cap=link_capacities(3))
def test_vector_engines_are_pickle_equal_to_the_reference(emb, buf, cap):
    g, trees, m = emb
    expect = pickle.dumps(
        CycleSimulator(g, trees, m, link_capacity=cap, buffer_size=buf).run()
    )
    for engine in VECTOR_ENGINES:
        got = run_engine(engine, g, trees, m, link_capacity=cap, buffer_size=buf)
        assert pickle.dumps(got) == expect, engine


@settings(max_examples=40, deadline=None)
@given(emb=embeddings(), data=st.data())
def test_fault_mask_is_edge_membership(emb, data):
    g, trees, _ = emb
    lay = EngineLayout.build(g, trees)
    used = sorted({e for t in trees for e in t.edges})
    dead = frozenset(
        data.draw(st.lists(st.sampled_from(used), unique=True)) if used else ()
    )
    expect = [
        canonical_edge(s, d) in dead
        for s, d in zip(lay.flow_src.tolist(), lay.flow_dst.tolist())
    ]
    assert lay.flows_on(dead).tolist() == expect


def test_aggregation_groups_list_sorted_children_per_internal_node():
    plan = get_plan(5, "low-depth")
    lay = EngineLayout.build(plan.topology, plan.trees)
    ref = CycleSimulator(plan.topology, plan.trees, plan.partition(10))
    up_fid = {
        (fl.tree, fl.src): fid
        for fid, fl in enumerate(ref.flows)
        if fl.kind == "reduce"
    }
    expect_groups, expect_roots = [], []
    for ti, t in enumerate(plan.trees):
        for v in range(plan.topology.n):
            if t.children(v):
                if v == t.root:
                    expect_roots.append(len(expect_groups))
                expect_groups.append([up_fid[ti, c] for c in t.children(v)])
    groups = np.split(lay.child_up.fid, lay.grp_off[1:])
    assert [g.tolist() for g in groups] == expect_groups
    assert np.array_equal(lay.child_bc.fid, lay.child_up.fid + 1)
    assert lay.root_grp.tolist() == expect_roots


@pytest.mark.parametrize("engine", ("reference",) + VECTOR_ENGINES)
def test_no_trees_and_zero_flit_trees(engine):
    plan = get_plan(5, "low-depth")
    g, trees = plan.topology, list(plan.trees)
    empty = run_engine(engine, g, [], [])
    assert empty.cycles == 0 and empty.flits_moved == 0
    mixed = [0, 4] + [0] * (len(trees) - 2)
    ref = CycleSimulator(g, trees, mixed).run()
    got = run_engine(engine, g, trees, mixed)
    assert pickle.dumps(got) == pickle.dumps(ref)
    assert got.tree_completion[0] == 0


def test_single_node_graph_has_no_flows():
    g = Graph.from_edges(1, [])
    lay = EngineLayout.build(g, [SpanningTree(0, {})])
    assert lay.num_flows == 0 and lay.num_channels == 0
    assert lay.channels() == []
    for engine in ("reference",) + VECTOR_ENGINES:
        assert run_engine(engine, g, [SpanningTree(0, {})], [3]).cycles == 0
