"""Broadcast schemes: weighted overlay networks with rate assignments.

A broadcast scheme (paper, Section II-D) is the output of the optimization
problem: a matrix ``c`` where ``c_ij`` is the rate at which node ``Ci``
sends data to node ``Cj``.  This module stores schemes sparsely
(adjacency dictionaries), and provides the model-constraint validators used
by every test in the suite:

* bandwidth constraint  ``sum_j c_ij <= b_i``,
* firewall constraint   ``c_ij = 0`` for guarded ``i`` *and* guarded ``j``,
* structural properties: outdegrees, acyclicity, topological order.

Rates within :data:`~repro.core.numerics.ABS_TOL` of zero are treated as
"no connection" — consistently with the paper's definition of the outdegree
``o_i = |{j : c_ij > 0}|``.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from .exceptions import InvalidSchemeError
from .instance import Instance
from .numerics import ABS_TOL, fle, fpos, safe_ceil_div

__all__ = ["BroadcastScheme"]


class BroadcastScheme:
    """A sparse rate matrix ``c_ij`` over nodes ``0..num_nodes-1``.

    The class is deliberately independent of :class:`Instance` so that
    structural queries (degrees, acyclicity) need no bandwidth data; the
    model validators take the instance explicitly.
    """

    __slots__ = ("num_nodes", "_out")

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise InvalidSchemeError("a scheme needs at least the source node")
        self.num_nodes = num_nodes
        self._out: list[Dict[int, float]] = [dict() for _ in range(num_nodes)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_instance(cls, instance: Instance) -> "BroadcastScheme":
        return cls(instance.num_nodes)

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Sequence[tuple[int, int, float]]
    ) -> "BroadcastScheme":
        scheme = cls(num_nodes)
        for i, j, rate in edges:
            scheme.add_rate(i, j, rate)
        return scheme

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "BroadcastScheme":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidSchemeError("rate matrix must be square")
        scheme = cls(matrix.shape[0])
        for i, j in zip(*np.nonzero(matrix)):
            scheme.add_rate(int(i), int(j), float(matrix[i, j]))
        return scheme

    def copy(self) -> "BroadcastScheme":
        dup = BroadcastScheme(self.num_nodes)
        dup._out = [dict(row) for row in self._out]
        return dup

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_pair(self, i: int, j: int) -> None:
        if not 0 <= i < self.num_nodes or not 0 <= j < self.num_nodes:
            raise InvalidSchemeError(
                f"edge ({i},{j}) out of range for {self.num_nodes} nodes"
            )
        if i == j:
            raise InvalidSchemeError(f"self-loop rate on node {i}")

    def set_rate(self, i: int, j: int, rate: float) -> None:
        """Set ``c_ij`` to ``rate`` (dropping the edge when ~0)."""
        self._check_pair(i, j)
        if rate < -ABS_TOL:
            raise InvalidSchemeError(f"negative rate {rate} on edge ({i},{j})")
        if rate <= ABS_TOL:
            self._out[i].pop(j, None)
        else:
            self._out[i][j] = float(rate)

    def add_rate(self, i: int, j: int, delta: float) -> None:
        """Increase ``c_ij`` by ``delta`` (may be negative; clamps at ~0)."""
        self._check_pair(i, j)
        new = self._out[i].get(j, 0.0) + float(delta)
        if new < -ABS_TOL:
            raise InvalidSchemeError(
                f"edge ({i},{j}) rate driven negative ({new})"
            )
        if new <= ABS_TOL:
            self._out[i].pop(j, None)
        else:
            self._out[i][j] = new

    def fresh_pair_sink(self) -> Callable[[int, int, float], None]:
        """An ``(i, j, rate)`` edge sink for producers that emit each
        in-range, loop-free pair at most once, starting from an empty
        row: on such a pair :meth:`add_rate` with a float ``rate >= 0``
        is exactly this store (``rate <= ABS_TOL`` is dropped, anything
        larger becomes ``c_ij``), minus its checks and lookups."""
        rows = self._out

        def sink(i: int, j: int, rate: float) -> None:
            if rate > ABS_TOL:
                rows[i][j] = rate

        return sink

    def remove_edge(self, i: int, j: int) -> None:
        self._check_pair(i, j)
        self._out[i].pop(j, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rate(self, i: int, j: int) -> float:
        """Current ``c_ij`` (0.0 when no edge)."""
        self._check_pair(i, j)
        return self._out[i].get(j, 0.0)

    def successors(self, i: int) -> Dict[int, float]:
        """Read-only view of ``{j: c_ij}`` for node ``i``."""
        return dict(self._out[i])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for i, row in enumerate(self._out):
            for j, rate in row.items():
                yield i, j, rate

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, rate)`` arrays in :meth:`edges` order, in one pass
        (the dict-scheme counterpart of
        :meth:`~repro.core.runs.RunScheme.edge_arrays`)."""
        rows = self._out
        num_edges = self.num_edges
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), [len(r) for r in rows]
        )
        dst = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=num_edges
        )
        rate = np.fromiter(
            chain.from_iterable(r.values() for r in rows),
            dtype=np.float64,
            count=num_edges,
        )
        return src, dst, rate

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self._out)

    def out_rate(self, i: int) -> float:
        """Total outgoing rate ``sum_j c_ij`` of node ``i``."""
        return math.fsum(self._out[i].values())

    def in_rate(self, j: int) -> float:
        """Total incoming rate ``sum_i c_ij`` of node ``j``."""
        return math.fsum(row.get(j, 0.0) for row in self._out)

    def in_rates(self) -> list[float]:
        """All incoming rates in one O(E) pass."""
        acc = [0.0] * self.num_nodes
        for row in self._out:
            for j, rate in row.items():
                acc[j] += rate
        return acc

    def outdegree(self, i: int) -> int:
        """``o_i = |{j : c_ij > 0}|`` — connections node ``i`` must handle."""
        return len(self._out[i])

    def outdegrees(self) -> list[int]:
        return [len(row) for row in self._out]

    def indegree(self, j: int) -> int:
        return sum(1 for row in self._out if j in row)

    def as_matrix(self) -> np.ndarray:
        mat = np.zeros((self.num_nodes, self.num_nodes))
        for i, j, rate in self.edges():
            mat[i, j] = rate
        return mat

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> Optional[list[int]]:
        """A topological order of the communication graph, or None if cyclic.

        Isolated nodes are included (after their would-be predecessors), so
        the result is always a permutation of ``0..num_nodes-1`` when the
        graph is acyclic.
        """
        indeg = [0] * self.num_nodes
        for row in self._out:
            for j in row:
                indeg[j] += 1
        stack = [v for v in range(self.num_nodes) if indeg[v] == 0]
        order: list[int] = []
        while stack:
            u = stack.pop()
            order.append(u)
            for j in self._out[u]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != self.num_nodes:
            return None
        return order

    def is_acyclic(self) -> bool:
        """Whether the communication graph is a DAG (Section II-D)."""
        return self.topological_order() is not None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        instance: Instance,
        *,
        require_acyclic: bool = False,
        tol: float = ABS_TOL,
    ) -> None:
        """Check all model constraints; raise :class:`InvalidSchemeError`.

        Parameters
        ----------
        instance:
            The instance supplying bandwidths and node classes.
        require_acyclic:
            Additionally require the communication graph to be a DAG.
        tol:
            Absolute slack allowed on the bandwidth constraints (float
            accumulation in the constructions stays far below the default).
        """
        if self.num_nodes != instance.num_nodes:
            raise InvalidSchemeError(
                f"scheme has {self.num_nodes} nodes, instance "
                f"{instance.num_nodes}"
            )
        for i in range(self.num_nodes):
            total = self.out_rate(i)
            cap = instance.bandwidth(i)
            if not fle(total, cap, abs_=tol):
                raise InvalidSchemeError(
                    f"node {i} sends {total} > bandwidth {cap}"
                )
        for i, j, rate in self.edges():
            if rate < -tol:
                raise InvalidSchemeError(f"negative rate {rate} on ({i},{j})")
            if instance.is_guarded(i) and instance.is_guarded(j) and fpos(rate):
                raise InvalidSchemeError(
                    f"firewall violation: guarded {i} -> guarded {j} at rate "
                    f"{rate}"
                )
        if require_acyclic and not self.is_acyclic():
            raise InvalidSchemeError("scheme was required to be acyclic")

    def check_degree_bounds(
        self,
        instance: Instance,
        throughput: float,
        additive: int,
        *,
        nodes: Optional[Sequence[int]] = None,
        floor: int = 0,
    ) -> list[tuple[int, int, int]]:
        """Return degree-bound violations ``(node, degree, bound)``.

        The paper states every guarantee as ``o_i <= ceil(b_i / T) + d``
        (possibly with an absolute floor, e.g. Theorem 5.2's
        ``max(ceil(b_i/T) + 2, 4)``).  An empty result means the bound
        holds for every requested node.
        """
        report = []
        check = range(self.num_nodes) if nodes is None else nodes
        for i in check:
            bound = max(
                safe_ceil_div(instance.bandwidth(i), throughput) + additive,
                floor,
            )
            deg = self.outdegree(i)
            if deg > bound:
                report.append((i, deg, bound))
        return report

    # ------------------------------------------------------------------
    # Serialization (experiments persist overlays for replay/inspection)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly form: node count plus an explicit edge list."""
        return {
            "num_nodes": self.num_nodes,
            "edges": [[i, j, rate] for i, j, rate in sorted(self.edges())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BroadcastScheme":
        scheme = cls(int(data["num_nodes"]))
        for i, j, rate in data["edges"]:
            scheme.set_rate(int(i), int(j), float(rate))
        return scheme

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str) -> "BroadcastScheme":
        import json

        return cls.from_dict(json.loads(payload))

    def isomorphic_rates(self, other: "BroadcastScheme", tol: float = 1e-9) -> bool:
        """Whether both schemes carry the same rates on the same edges."""
        if self.num_nodes != other.num_nodes:
            return False
        mine = {(i, j): r for i, j, r in self.edges()}
        theirs = {(i, j): r for i, j, r in other.edges()}
        if mine.keys() != theirs.keys():
            return False
        return all(abs(mine[k] - theirs[k]) <= tol for k in mine)

    # ------------------------------------------------------------------
    def relabel(self, perm: Sequence[int]) -> "BroadcastScheme":
        """Return a copy with node ``k`` renamed to ``perm[k]``.

        Used to map schemes computed on a canonical (sorted) instance back
        to the caller's original node numbering
        (see :meth:`Instance.from_unsorted`).
        """
        if sorted(perm) != list(range(self.num_nodes)):
            raise InvalidSchemeError("relabel permutation is not a bijection")
        out = BroadcastScheme(self.num_nodes)
        for i, j, rate in self.edges():
            out.set_rate(perm[i], perm[j], rate)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BroadcastScheme(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"acyclic={self.is_acyclic()})"
        )

    def format_edges(self, instance: Optional[Instance] = None) -> str:
        """Human-readable edge listing used by the examples."""
        lines = []
        for i, j, rate in sorted(self.edges()):
            tag = ""
            if instance is not None:
                ki = "G" if instance.is_guarded(i) else "O"
                kj = "G" if instance.is_guarded(j) else "O"
                tag = f"  [{ki}->{kj}]"
            lines.append(f"  C{i} -> C{j}: {rate:.6g}{tag}")
        return "\n".join(lines) if lines else "  (empty scheme)"
