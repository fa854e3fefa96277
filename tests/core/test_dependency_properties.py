"""Property-based tests for dependency-graph version propagation.

Invariants, over random DAGs and update sequences:
* versions never decrease;
* one direct update bumps exactly the transitive downstream closure (+ the
  updated model), each exactly once;
* production versions never move without an explicit promote;
* the graph stays acyclic (topological_order never raises);
* ``topological_order`` equals the sorted-ready-list loop it replaced, and
  every propagation wave is a topological order of exactly its affected set.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dependencies import DependencyGraph
from repro.core.versioning import InstanceVersion
from repro.errors import DependencyCycleError, DuplicateError

N_MODELS = 6
MODELS = [f"m{i}" for i in range(N_MODELS)]

#: Edges only point from lower to higher index -> construction can't cycle.
edges = st.lists(
    st.tuples(st.integers(0, N_MODELS - 1), st.integers(0, N_MODELS - 1)).filter(
        lambda t: t[0] < t[1]
    ),
    max_size=10,
    unique=True,
)

updates = st.lists(st.sampled_from(MODELS), max_size=8)


def build_graph(edge_list):
    graph = DependencyGraph()
    for model in MODELS:
        graph.add_model(model, "1.0")
    for upstream_idx, downstream_idx in edge_list:
        try:
            graph.add_dependency(MODELS[downstream_idx], MODELS[upstream_idx], bump=False)
        except DuplicateError:
            pass
    return graph


@given(edges, updates)
@settings(max_examples=200)
def test_versions_monotonic_and_production_pinned(edge_list, update_sequence):
    graph = build_graph(edge_list)
    previous = {m: graph.latest_version(m) for m in MODELS}
    for model in update_sequence:
        graph.record_instance_update(model)
        for m in MODELS:
            current = graph.latest_version(m)
            assert current >= previous[m], "version decreased"
            previous[m] = current
        # production untouched by propagation
        assert all(str(graph.production_version(m)) == "1.0" for m in MODELS)
    graph.topological_order()  # still a DAG


@given(edges, st.sampled_from(MODELS))
@settings(max_examples=200)
def test_one_update_bumps_exactly_the_closure(edge_list, updated):
    graph = build_graph(edge_list)
    closure = graph.downstream(updated, transitive=True)
    events = graph.record_instance_update(updated)
    touched = [e.model_id for e in events]
    assert sorted(touched) == sorted(closure | {updated})
    assert len(touched) == len(set(touched)), "a model was bumped twice"


@given(edges)
@settings(max_examples=100)
def test_upstream_downstream_are_inverse_relations(edge_list):
    graph = build_graph(edge_list)
    for model in MODELS:
        for upstream in graph.upstream(model):
            assert model in graph.downstream(upstream)
        for downstream in graph.downstream(model):
            assert model in graph.upstream(downstream)


@given(edges)
@settings(max_examples=100)
def test_transitive_closures_contain_direct_neighbours(edge_list):
    graph = build_graph(edge_list)
    for model in MODELS:
        assert graph.upstream(model) <= graph.upstream(model, transitive=True)
        assert graph.downstream(model) <= graph.downstream(model, transitive=True)


@given(edges)
@settings(max_examples=100)
def test_closing_edge_rejected_as_cycle(edge_list):
    """Adding the reverse of a reachable path must raise."""
    graph = build_graph(edge_list)
    for upstream_idx, downstream_idx in edge_list:
        downstream, upstream = MODELS[downstream_idx], MODELS[upstream_idx]
        if upstream in graph.upstream(downstream, transitive=True):
            try:
                graph.add_dependency(upstream, downstream)
            except (DependencyCycleError, DuplicateError):
                continue
            raise AssertionError("cycle-closing edge was accepted")


@given(st.lists(st.sampled_from(["minor", "major"]), max_size=10))
@settings(max_examples=100)
def test_instance_version_ordering_total(bumps):
    version = InstanceVersion(1, 0)
    history = [version]
    for bump in bumps:
        version = version.bump_minor() if bump == "minor" else version.bump_major()
        history.append(version)
    assert history == sorted(history)
    assert len(set(history)) == len(history)


# -- ordering: the heap-based Kahn pass against the loop it replaced ---------


def reference_topological_order(graph):
    """The pre-heap ``topological_order`` loop, kept verbatim as an oracle:
    re-sort the ready list after every pop and take its smallest id."""
    nodes = graph._nodes  # noqa: SLF001
    in_degree = {mid: len(node.upstream) for mid, node in nodes.items()}
    ready = sorted(mid for mid, deg in in_degree.items() if deg == 0)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for succ in sorted(nodes[current].downstream):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
        ready.sort()
    return order


@st.composite
def labelled_dags(draw):
    """A DAG whose ids are shuffled against its topological order, so the
    smallest-ready-id rule is exercised, not implied by the labels."""
    size = draw(st.integers(1, 14))
    names = draw(st.permutations([f"n{i:02d}" for i in range(size)]))
    pairs = [(u, d) for u in range(size) for d in range(u + 1, size)]
    chosen = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    graph = DependencyGraph()
    for name in names:
        graph.add_model(name, "1.0")
    for upstream_idx, downstream_idx in chosen:
        graph.add_dependency(names[downstream_idx], names[upstream_idx], bump=False)
    return graph


def assert_wave_is_topological(graph, events, affected):
    """*events* bump exactly *affected*, once each, every model after all of
    its affected upstreams."""
    order = [e.model_id for e in events]
    assert sorted(order) == sorted(affected)
    assert len(order) == len(set(order)), "a model was bumped twice"
    position = {mid: index for index, mid in enumerate(order)}
    for mid in order:
        for upstream in graph.upstream(mid) & affected:
            assert position[upstream] < position[mid], (
                f"{mid} bumped before its upstream {upstream}"
            )


@given(labelled_dags())
@settings(max_examples=300)
def test_topological_order_matches_the_sorted_ready_list_loop(graph):
    assert graph.topological_order() == reference_topological_order(graph)


@given(labelled_dags(), st.data())
@settings(max_examples=300)
def test_update_waves_are_topological_orders_of_the_affected_set(graph, data):
    for _ in range(data.draw(st.integers(1, 4))):
        updated = data.draw(st.sampled_from(graph.models()))
        affected = graph.downstream(updated, transitive=True) | {updated}
        if data.draw(st.booleans()):
            events = graph.record_instance_update(updated)
        else:
            events = graph.record_model_change(updated)
        assert events[0].model_id == updated
        assert_wave_is_topological(graph, events, affected)


@given(labelled_dags(), st.data())
@settings(max_examples=200)
def test_edge_change_waves_are_topological_orders_of_the_affected_set(graph, data):
    models = graph.models()
    downstream = data.draw(st.sampled_from(models))
    upstream = data.draw(st.sampled_from(models))
    if upstream in graph.upstream(downstream):
        events = graph.remove_dependency(downstream, upstream)
    else:
        try:
            events = graph.add_dependency(downstream, upstream)
        except DependencyCycleError:
            return
    affected = graph.downstream(downstream, transitive=True) | {downstream}
    assert_wave_is_topological(graph, events, affected)
