"""Closed-form throughput bounds and worst-case constants from the paper.

Implemented here:

* Section III-B upper bound + optimum for acyclic schemes on open-only
  instances: ``T*_ac = min(b0, S_{n-1} / n)``.
* Lemma 5.1 upper bound on the optimal cyclic throughput
  ``T* <= min(b0, (b0+O)/m, (b0+O+G)/(n+m))`` — shown tight by the paper
  (for open-only instances constructively via Theorem 5.2; with guarded
  nodes at the price of unbounded degrees, cf. Figure 6).
* Theorem 6.1: open-only instances satisfy ``T*_ac / T* >= 1 - 1/n``.
* Theorem 6.2 constant ``5/7`` (tight worst case of ``T*_ac / T*``).
* Theorem 6.3: the asymptotic gap ``(1 + sqrt(41)) / 8`` with its witness
  bandwidth ratio ``alpha = (sqrt(41) - 3) / 8``, and the two constraint
  functions ``f_alpha`` / ``g_alpha`` whose crossing determines the bound.
"""

from __future__ import annotations

import math

from .instance import Instance

__all__ = [
    "acyclic_open_optimum",
    "cyclic_bound",
    "cyclic_optimum",
    "cyclic_open_optimum",
    "open_only_ratio_bound",
    "FIVE_SEVENTHS",
    "THEOREM63_LIMIT",
    "THEOREM63_ALPHA",
    "f_alpha",
    "g_alpha",
    "theorem63_acyclic_upper_bound",
]

#: Tight worst-case ratio ``T*_ac / T*`` over all instances (Theorem 6.2).
FIVE_SEVENTHS: float = 5.0 / 7.0

#: Asymptotic worst-case ratio for arbitrarily large instances
#: (Theorem 6.3): ``(1 + sqrt(41)) / 8 ~= 0.92539``.
THEOREM63_LIMIT: float = (1.0 + math.sqrt(41.0)) / 8.0

#: The open/guarded bandwidth ratio achieving :data:`THEOREM63_LIMIT`:
#: ``alpha = (sqrt(41) - 3) / 8 ~= 0.42539``.
THEOREM63_ALPHA: float = (math.sqrt(41.0) - 3.0) / 8.0


def acyclic_open_optimum(instance: Instance) -> float:
    """Optimal acyclic throughput for an instance without guarded nodes.

    Section III-B: any acyclic solution has a node that sends nothing; with
    nodes sorted non-increasingly that node may as well be the smallest, so
    ``T*_ac <= S_{n-1} / n``, and obviously ``T*_ac <= b0``.  Algorithm 1
    achieves ``min(b0, S_{n-1}/n)``, hence equality.

    Returns ``inf`` for the degenerate instance with no receivers.
    """
    if instance.m != 0:
        raise ValueError(
            "acyclic_open_optimum applies to open-only instances; use the "
            "dichotomic search of repro.algorithms.acyclic_guarded otherwise"
        )
    n = instance.n
    if n == 0:
        return float("inf")
    return min(instance.source_bw, instance.prefix_sum(n - 1) / n)


def cyclic_bound(
    b0: float, n: int, m: int, open_sum: float, guarded_sum: float
) -> float:
    """Lemma 5.1 closed form from its aggregates.

    ``T* = min(b0, (b0 + O) / m, (b0 + O + G) / (n + m))`` where the second
    term is present only when ``m > 0``.  The three terms are: the source
    must inject the whole message; the ``m`` guarded nodes can only be fed
    by open bandwidth; all ``n + m`` receivers must be fed by somebody.
    Callers sum ``O`` and ``G`` themselves, so each keeps its own rounding.

    Returns ``inf`` for the degenerate instance with no receivers.
    """
    if n + m == 0:
        return float("inf")
    bound = min(b0, (b0 + open_sum + guarded_sum) / (n + m))
    if m > 0:
        bound = min(bound, (b0 + open_sum) / m)
    return bound


def cyclic_optimum(instance: Instance) -> float:
    """Optimal cyclic throughput ``T*`` of ``instance`` (Lemma 5.1)."""
    return cyclic_bound(
        instance.source_bw,
        instance.n,
        instance.m,
        instance.open_sum,
        instance.guarded_sum,
    )


def cyclic_open_optimum(instance: Instance) -> float:
    """``T* = min(b0, (b0 + O) / n)`` for open-only instances (Thm 5.2)."""
    if instance.m != 0:
        raise ValueError("cyclic_open_optimum applies to open-only instances")
    return cyclic_optimum(instance)


def open_only_ratio_bound(n: int) -> float:
    """Theorem 6.1: on open-only size-``n`` instances, ``T*_ac/T* >= 1-1/n``."""
    if n <= 0:
        raise ValueError("need at least one receiver")
    return 1.0 - 1.0 / n


def f_alpha(alpha: float, x: float) -> float:
    """First Theorem 6.3 constraint: ``f_alpha(x) = (alpha x + 1) / 2``.

    On the instance ``I(alpha, k)`` (open bandwidth ``alpha``, guarded
    bandwidth ``1/alpha``, ``b0 = 1``), an acyclic solution whose first two
    guarded nodes are preceded by ``x`` open nodes must feed both of them
    from the source and those ``x`` open nodes: ``alpha x + 1 >= 2 T``.
    """
    return (alpha * x + 1.0) / 2.0


def g_alpha(alpha: float, x: float) -> float:
    """Second Theorem 6.3 constraint:
    ``g_alpha(x) = (alpha x + 1/alpha + 1) / (x + 2)``.

    The source, the first ``x`` open nodes and the first guarded node must
    collectively feed ``x + 2`` receivers.
    """
    return (alpha * x + 1.0 / alpha + 1.0) / (x + 2.0)


def theorem63_acyclic_upper_bound(alpha: float) -> float:
    """Upper bound on ``T*_ac`` for ``I(alpha, k)`` (any ``k``), ``alpha<1``.

    ``f_alpha`` increases and ``g_alpha`` decreases in ``x`` and they cross
    (at value 1) at ``x = 1/alpha``; the best integer ``x`` is a floor/ceil
    neighbour: ``T*_ac <= max(f_alpha(floor(1/alpha)),
    g_alpha(ceil(1/alpha)))``.  At ``alpha = (sqrt(41)-3)/8`` both sides
    equal ``(1 + sqrt(41))/8``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("theorem 6.3 requires 0 < alpha < 1")
    inv = 1.0 / alpha
    return max(f_alpha(alpha, math.floor(inv)), g_alpha(alpha, math.ceil(inv)))
