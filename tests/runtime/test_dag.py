"""Tests for dataflow dependency derivation and DAG queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.precision.formats import Precision
from repro.runtime.dag import TaskGraph
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, DataHandle


@pytest.fixture
def handles():
    return DataHandle("A"), DataHandle("B"), DataHandle("C")


class TestDependencies:
    def test_read_after_write(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        w = g.insert_task("write", (a, AccessMode.WRITE))
        r = g.insert_task("read", (a, AccessMode.READ))
        assert w in g.predecessors(r)
        assert g.edge_kind(w, r) == "RAW"

    def test_write_after_read(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        g.insert_task("init", (a, AccessMode.WRITE))
        r = g.insert_task("read", (a, AccessMode.READ))
        w2 = g.insert_task("overwrite", (a, AccessMode.WRITE))
        assert r in g.predecessors(w2)

    def test_write_after_write(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        w1 = g.insert_task("w1", (a, AccessMode.WRITE))
        w2 = g.insert_task("w2", (a, AccessMode.WRITE))
        assert w1 in g.predecessors(w2)

    def test_independent_tasks_have_no_edge(self, handles):
        a, b, _ = handles
        g = TaskGraph()
        t1 = g.insert_task("t1", (a, AccessMode.READWRITE))
        t2 = g.insert_task("t2", (b, AccessMode.READWRITE))
        assert g.num_edges == 0
        assert t2 not in g.successors(t1)

    def test_parallel_reads_share_no_edges(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        g.insert_task("init", (a, AccessMode.WRITE))
        r1 = g.insert_task("r1", (a, AccessMode.READ))
        r2 = g.insert_task("r2", (a, AccessMode.READ))
        assert r1 not in g.predecessors(r2)
        assert r2 not in g.predecessors(r1)

    def test_readwrite_chains_serialize(self, handles):
        a, _, _ = handles
        g = TaskGraph()
        tasks = [g.insert_task(f"t{i}", (a, AccessMode.READWRITE)) for i in range(5)]
        order = g.topological_order()
        assert order == tasks


class TestGraphQueries:
    def _diamond(self):
        a, b, c, d = (DataHandle(x) for x in "abcd")
        g = TaskGraph()
        t0 = g.insert_task("src", (a, AccessMode.WRITE), flops=1.0)
        t1 = g.insert_task("l", (a, AccessMode.READ), (b, AccessMode.WRITE), flops=2.0)
        t2 = g.insert_task("r", (a, AccessMode.READ), (c, AccessMode.WRITE), flops=5.0)
        t3 = g.insert_task("sink", (b, AccessMode.READ), (c, AccessMode.READ),
                           (d, AccessMode.WRITE), flops=1.0)
        return g, (t0, t1, t2, t3)

    def test_topological_order_valid(self):
        g, (t0, t1, t2, t3) = self._diamond()
        order = g.topological_order()
        assert order.index(t0) < order.index(t1) < order.index(t3)
        assert order.index(t0) < order.index(t2) < order.index(t3)

    def test_is_acyclic(self):
        g, _ = self._diamond()
        assert g.is_acyclic()

    def test_total_and_critical_path_flops(self):
        g, _ = self._diamond()
        assert g.total_flops() == 9.0
        assert g.critical_path_flops() == 7.0  # src -> r -> sink

    def test_task_counts_by_name(self):
        g, _ = self._diamond()
        counts = g.task_counts_by_name()
        assert counts == {"src": 1, "l": 1, "r": 1, "sink": 1}

    def test_execute_sequential_runs_bodies(self):
        a = DataHandle("a", payload=0)
        g = TaskGraph()
        g.insert_task("inc", (a, AccessMode.READWRITE), body=lambda x: x + 1)
        g.insert_task("inc", (a, AccessMode.READWRITE), body=lambda x: x + 1)
        g.execute_sequential()
        assert a.payload == 2

    def test_len_and_precision_default(self):
        g, _ = self._diamond()
        assert len(g) == 4
        assert g.tasks[0].precision is Precision.FP64

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.critical_path_flops() == 0.0
        assert g.topological_order() == []


# ----------------------------------------------------------------------
# properties over random access patterns
# ----------------------------------------------------------------------
_MODES = (AccessMode.READ, AccessMode.WRITE, AccessMode.READWRITE)

#: tasks, each a short list of (handle index, access mode)
access_patterns = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_MODES)),
             min_size=1, max_size=3),
    max_size=14)


def _brute_force_edges(pattern) -> dict[tuple[int, int], str]:
    """Edges by definition: ``i -> j`` (``i < j``) for every handle both
    touch with no write to it by a task strictly in between — RAW when
    ``i`` writes and ``j`` reads, WAR when ``i`` reads and ``j`` writes,
    WAW when both write."""
    use = []  # per task: handle -> (reads, writes)
    for accesses in pattern:
        modes: dict[int, tuple[bool, bool]] = {}
        for h, m in accesses:
            r, w = modes.get(h, (False, False))
            modes[h] = (r or m is not AccessMode.WRITE,
                        w or m is not AccessMode.READ)
        use.append(modes)
    edges = {}
    for j in range(len(use)):
        for i in range(j):
            kinds = set()
            for h, (rj, wj) in use[j].items():
                if h not in use[i] or any(
                        use[k].get(h, (False, False))[1]
                        for k in range(i + 1, j)):
                    continue
                ri, wi = use[i][h]
                if wi and rj:
                    kinds.add("RAW")
                if ri and wj:
                    kinds.add("WAR")
                if wi and wj:
                    kinds.add("WAW")
            if kinds:
                edges[(i, j)] = "+".join(sorted(kinds))
    return edges


class TestDependencyProperties:
    @settings(max_examples=200, deadline=None)
    @given(access_patterns)
    def test_edges_match_brute_force_hazards(self, pattern):
        handles = [DataHandle(f"h{i}") for i in range(4)]
        g = TaskGraph()
        tasks = [g.insert_task(f"t{n}", *((handles[h], m) for h, m in acc))
                 for n, acc in enumerate(pattern)]
        index = {t: n for n, t in enumerate(tasks)}
        derived = {(index[u], index[v]): g.edge_kind(u, v)
                   for u in tasks for v in g.successors(u)}
        assert derived == _brute_force_edges(pattern)
        assert g.num_edges == len(derived)
        for (i, j), kind in derived.items():
            assert g.edge_kind(tasks[i], tasks[j]) == kind
            assert tasks[i] in g.predecessors(tasks[j])
            assert tasks[j] in g.successors(tasks[i])

    @settings(max_examples=100, deadline=None)
    @given(access_patterns, st.data())
    def test_serial_drain_respects_every_edge(self, pattern, data):
        rt = Runtime(execution="serial")
        handles = [rt.register_data(f"h{i}") for i in range(4)]
        ran: list[int] = []
        for n, accesses in enumerate(pattern):
            rt.insert_task(
                f"t{n}", *((handles[h], m) for h, m in accesses),
                body=lambda *_, n=n: ran.append(n),
                priority=data.draw(st.integers(-3, 3)))
        rt.run()
        graph = rt.last_graph
        position = {n: p for p, n in enumerate(ran)}
        assert sorted(ran) == list(range(len(pattern)))
        names = {t: int(t.name[1:]) for t in graph.tasks}
        for u in graph.tasks:
            for v in graph.successors(u):
                assert position[names[u]] < position[names[v]]
