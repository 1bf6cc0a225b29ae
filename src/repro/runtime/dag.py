"""Task DAG construction from dataflow access declarations.

The :class:`TaskGraph` accumulates tasks in insertion order and derives
edges from per-handle access history, exactly like a superscalar /
dataflow runtime:

* read-after-write  → true dependency,
* write-after-read  → anti dependency,
* write-after-write → output dependency.

Edges live in plain dict successor/predecessor maps.  A new task only
ever gains edges *from* tasks inserted before it, so insertion order is
a topological order and the graph is acyclic by construction — the
queries below (topological order, critical path) are single passes over
the task list.
"""

from __future__ import annotations

from repro.runtime.task import AccessMode, DataHandle, Task

#: Hazard bits of an edge; an edge may carry several (e.g. RAW and WAW
#: from a READWRITE access after a write).
RAW, WAR, WAW = 1, 2, 4
_KIND_NAMES = (("RAW", RAW), ("WAR", WAR), ("WAW", WAW))


class TaskGraph:
    """Directed acyclic graph of :class:`~repro.runtime.task.Task`."""

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        # task -> {successor: hazard bits}; task -> {predecessor: None}
        # (dicts keep first-edge order, which the drains' ready-hook
        # callbacks follow)
        self._succ: dict[Task, dict[Task, int]] = {}
        self._pred: dict[Task, dict[Task, None]] = {}
        self._num_edges = 0
        # per-handle access history used to derive dependencies
        self._last_writer: dict[DataHandle, Task] = {}
        self._readers_since_write: dict[DataHandle, list[Task]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _edge(self, src: Task, dst: Task, kind: int) -> None:
        succ = self._succ[src]
        bits = succ.get(dst)
        if bits is None:
            succ[dst] = kind
            self._pred[dst][src] = None
            self._num_edges += 1
        else:
            succ[dst] = bits | kind

    def add_task(self, task: Task) -> Task:
        """Insert a task, deriving dependency edges from its accesses."""
        if task in self._succ:
            raise ValueError(f"{task!r} is already in this graph")
        self._succ[task] = {}
        self._pred[task] = {}
        self._tasks.append(task)
        last_writer = self._last_writer
        for handle, mode in task.accesses:
            writer = last_writer.get(handle)
            if mode is not AccessMode.WRITE and writer is not None:
                self._edge(writer, task, RAW)
            if mode is not AccessMode.READ:
                # order after previous readers (WAR) and the previous writer (WAW)
                for reader in self._readers_since_write.get(handle, ()):
                    self._edge(reader, task, WAR)
                if writer is not None:
                    self._edge(writer, task, WAW)
        # update history after edges are derived, writes before reads,
        # so a handle listed twice acts like one READWRITE access
        for handle, mode in task.accesses:
            if mode is not AccessMode.READ:
                last_writer[handle] = task
                self._readers_since_write[handle] = []
        for handle, mode in task.accesses:
            if mode is not AccessMode.WRITE:
                self._readers_since_write.setdefault(handle, []).append(task)
        return task

    def insert_task(self, name: str, *accesses, body=None, flops: float = 0.0,
                    precision=None, priority: int = 0, tag=None,
                    flops_detail=None, tile_deps=(), pspec=None) -> Task:
        """PaRSEC-style convenience wrapper around :meth:`add_task`.

        ``accesses`` is a flat sequence of ``(handle, mode)`` pairs.
        """
        from repro.precision.formats import Precision

        task = Task(
            name=name,
            accesses=tuple(accesses),
            body=body,
            flops=flops,
            precision=precision or Precision.FP64,
            priority=priority,
            tag=tag,
            flops_detail=flops_detail,
            tile_deps=tuple(tile_deps),
            pspec=pspec,
        )
        return self.add_task(task)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def predecessors(self, task: Task) -> list[Task]:
        return list(self._pred[task])

    def successors(self, task: Task) -> list[Task]:
        return list(self._succ[task])

    def in_degree(self, task: Task) -> int:
        return len(self._pred[task])

    def edge_kind(self, src: Task, dst: Task) -> str:
        """Hazard(s) behind the edge ``src -> dst``: ``"RAW"``, ``"WAR"``,
        ``"WAW"`` or a ``+``-joined combination such as ``"RAW+WAW"``."""
        bits = self._succ[src][dst]
        return "+".join(name for name, bit in _KIND_NAMES if bits & bit)

    def is_acyclic(self) -> bool:
        """Always true: edges only point from earlier to later insertions."""
        return True

    def topological_order(self) -> list[Task]:
        """A valid execution order: the insertion order."""
        return list(self._tasks)

    def total_flops(self) -> float:
        return float(sum(t.flops for t in self._tasks))

    def _longest_path(self, weight) -> float:
        longest: dict[Task, float] = {}
        for task in self._tasks:
            longest[task] = weight(task) + max(
                (longest[p] for p in self._pred[task]), default=0)
        return max(longest.values(), default=0)

    def critical_path_flops(self) -> float:
        """Maximum sum of task flops along any dependency chain.

        This is the lower bound on execution "work depth" and is what
        limits strong scaling once communication is free.
        """
        return float(self._longest_path(lambda t: float(t.flops)))

    def critical_path_length(self) -> int:
        """Number of tasks on the longest dependency chain.

        This is the depth bound on out-of-order execution: with
        unbounded workers, a run can never take fewer "task steps" than
        the critical path has tasks.
        """
        return int(self._longest_path(lambda t: 1))

    def task_counts_by_name(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for t in self._tasks:
            counts[t.name] = counts.get(t.name, 0) + 1
        return counts

    def execute_sequential(self) -> None:
        """Execute all task bodies in a valid topological order."""
        for task in self._tasks:
            task.execute()

    def __len__(self) -> int:
        return self.num_tasks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskGraph({self.num_tasks} tasks, {self.num_edges} edges)"
