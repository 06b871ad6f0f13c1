"""Exact reference solvers (LP and exhaustive search) for cross-validation.

The combinatorial algorithms of this library (Algorithm 2 + bisection, the
word machinery) are validated against independent formulations:

* :func:`order_lp_throughput` — ``T*_ac(sigma)`` for a *fixed* order as a
  linear program (HiGHS via :func:`scipy.optimize.linprog`).  In an acyclic
  scheme compatible with ``sigma``, the throughput equals the minimum
  in-rate (see :mod:`repro.core.throughput`), so the LP is simply::

      max T   s.t.  sum_{k < l, allowed} c_{kl} >= T   for every position l
                    sum_l c_{kl} <= b_{sigma(k)}        for every position k
                    c >= 0

  This must agree with the bisection over the Lemma 4.4 recursion
  (Lemmas 4.3/4.4 say conservative feeding is dominant for a fixed order).

* :func:`exhaustive_acyclic_throughput` — ``max`` over *all* increasing
  orders (all ``C(n+m, m)`` coding words) of the above; by Lemma 4.2 this
  is exactly ``T*_ac``.  Exponential: guarded by a size limit, used on
  small instances to certify Algorithm 2 end to end.

* :func:`optimal_cyclic_lp` — ``T*`` as a broadcast LP with one flow
  commodity per receiver (Edmonds/fractional-arborescence view: a rate
  matrix supports broadcast rate ``T`` iff it supports a ``T``-flow from
  the source to every receiver separately)::

      max T  s.t.  f^v conserves at nodes != 0, v;  excess at v = T
                   f^v_{ij} <= c_{ij};   sum_j c_{ij} <= b_i;  firewall

  Used to certify the Lemma 5.1 closed form on small instances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.exceptions import ReproError
from ..core.instance import Instance
from ..core.words import all_words, word_to_order

__all__ = [
    "order_lp_throughput",
    "exhaustive_acyclic_throughput",
    "optimal_cyclic_lp",
]


def _lp(c, A_ub, b_ub, A_eq=None, b_eq=None, bounds=None):
    # Deferred import: only the LP oracles need scipy, and loading it
    # would more than double the start-up time and memory of every
    # ``import repro``.
    from scipy.optimize import linprog

    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not res.success:  # pragma: no cover - defensive
        raise ReproError(f"LP solver failed: {res.message}")
    return res


def order_lp_throughput(
    instance: Instance, order: Sequence[int] | str
) -> float:
    """Optimal acyclic throughput for a fixed order (LP, exact).

    ``order`` is either a node sequence starting with the source or a
    coding word (string over ``'o'``/``'g'``), in which case the increasing
    order it encodes is used.
    """
    if isinstance(order, str):
        order = word_to_order(instance, order)
    nodes = list(order)
    if nodes[0] != 0:
        raise ValueError("order must start with the source")
    L = len(nodes)
    if L != instance.num_nodes:
        raise ValueError("order must cover every node")
    if L == 1:
        return float("inf")

    # Variables: x = [T, c_e for allowed position pairs (k, l), k < l].
    edges: list[tuple[int, int]] = []
    for k in range(L):
        for l in range(k + 1, L):
            if instance.can_send(nodes[k], nodes[l]):
                edges.append((k, l))
    nvar = 1 + len(edges)
    obj = np.zeros(nvar)
    obj[0] = -1.0  # maximize T

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    # In-rate constraints:  T - sum_in c <= 0  for every receiving position.
    for l in range(1, L):
        row = np.zeros(nvar)
        row[0] = 1.0
        for e, (k, kl) in enumerate(edges):
            if kl == l:
                row[1 + e] = -1.0
        rows.append(row)
        rhs.append(0.0)
    # Bandwidth constraints:  sum_out c <= b.
    for k in range(L):
        row = np.zeros(nvar)
        for e, (kk, _) in enumerate(edges):
            if kk == k:
                row[1 + e] = 1.0
        if row.any():
            rows.append(row)
            rhs.append(instance.bandwidth(nodes[k]))
    res = _lp(obj, np.vstack(rows), np.array(rhs), bounds=[(0, None)] * nvar)
    return float(res.x[0])


def exhaustive_acyclic_throughput(
    instance: Instance, *, max_receivers: int = 16
) -> tuple[float, str]:
    """``T*_ac`` by brute force over every coding word (small instances).

    Lemma 4.2 restricts the search to increasing orders, i.e. to the
    ``C(n+m, m)`` coding words.  Returns ``(T*_ac, argmax word)``.
    """
    n, m = instance.n, instance.m
    if n + m == 0:
        return float("inf"), ""
    if n + m > max_receivers:
        raise ValueError(
            f"{n + m} receivers exceed the exhaustive-search limit "
            f"{max_receivers}"
        )
    best, best_word = -1.0, ""
    for word in all_words(n, m):
        t = order_lp_throughput(instance, word)
        if t > best:
            best, best_word = t, word
    return best, best_word


def optimal_cyclic_lp(instance: Instance, *, max_receivers: int = 12) -> float:
    """``T*`` by the multi-flow broadcast LP (small instances).

    Certifies the Lemma 5.1 closed form
    ``min(b0, (b0+O)/m, (b0+O+G)/(n+m))`` independently of any
    combinatorial argument.
    """
    L = instance.num_nodes
    R = instance.num_receivers
    if R == 0:
        return float("inf")
    if R > max_receivers:
        raise ValueError(
            f"{R} receivers exceed the cyclic-LP size limit {max_receivers}"
        )
    edges = [
        (i, j)
        for i in range(L)
        for j in range(L)
        if i != j and instance.can_send(i, j)
    ]
    E = len(edges)
    # Variables: [T, c_0..c_{E-1}, f^1_0.., ..., f^R_0..] (one flow per
    # receiver v in 1..R).
    nvar = 1 + E + R * E

    def fvar(v: int, e: int) -> int:
        return 1 + E + (v - 1) * E + e

    obj = np.zeros(nvar)
    obj[0] = -1.0

    ub_rows, ub_rhs = [], []
    eq_rows, eq_rhs = [], []
    # Capacity coupling: f^v_e - c_e <= 0.
    for v in range(1, R + 1):
        for e in range(E):
            row = np.zeros(nvar)
            row[fvar(v, e)] = 1.0
            row[1 + e] = -1.0
            ub_rows.append(row)
            ub_rhs.append(0.0)
    # Bandwidth: sum_out c <= b_i.
    for i in range(L):
        row = np.zeros(nvar)
        for e, (u, _) in enumerate(edges):
            if u == i:
                row[1 + e] = 1.0
        ub_rows.append(row)
        ub_rhs.append(instance.bandwidth(i))
    # Flow conservation / demand.
    for v in range(1, R + 1):
        for u in range(1, L):
            row = np.zeros(nvar)
            for e, (a, b) in enumerate(edges):
                if b == u:
                    row[fvar(v, e)] += 1.0
                if a == u:
                    row[fvar(v, e)] -= 1.0
            if u == v:
                row[0] = -1.0  # net inflow at the sink equals T
                eq_rows.append(row)
                eq_rhs.append(0.0)
            else:
                eq_rows.append(row)
                eq_rhs.append(0.0)
    res = _lp(
        obj,
        np.vstack(ub_rows),
        np.array(ub_rhs),
        np.vstack(eq_rows),
        np.array(eq_rhs),
        bounds=[(0, None)] * nvar,
    )
    return float(res.x[0])
