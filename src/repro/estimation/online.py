"""Estimation in the loop: probes, an online estimator, the planner view.

The paper's pipeline (Section II-C) never hands the optimizer oracle
bandwidths: LastMile parameters are *reconstructed* from a sparse set of
noisy point-to-point measurements, and the Theorem 4.1 overlay is built
on the reconstruction.  This module closes the same loop for the
*runtime* subsystem, so controllers re-optimize on what a tracker could
actually measure — Mathieu's live-streaming question ("does
heterogeneity still help when the optimizer only sees a degraded view of
it?") becomes a knob instead of an assumption:

* :class:`ProbeScheduler` — at every epoch boundary, samples a seeded
  sparse set of ordered pairwise probes from the live platform (a global
  budget of ``probes_per_node * num_alive`` directed pairs, *not* a
  per-node guarantee: at low budgets some peers receive no probe at all,
  exactly like a real sparse deployment) and reports each pair's
  LastMile bandwidth under multiplicative log-normal noise.  Pair values
  come from per-``(seed, slot, source, target)`` counter-based streams
  (:func:`~repro.estimation.measurements.pair_noise` defines them; one
  :func:`~repro.estimation.measurements.pair_noises` call draws a whole
  round, bit for bit the same), so probing is bit-deterministic across
  batch shards and process-pool dispatch and never perturbs the engine's
  simulation RNG.
* :class:`OnlineEstimator` — accumulates probes (last write wins per
  directed pair), exponentially decays stale ones (a measurement aged
  ``a`` probe rounds carries weight ``decay**a`` and is dropped once
  below ``min_weight`` — the retained window *is* the decay's support),
  reacts to churn deltas (departures purge a peer's measurements, a
  bandwidth drift invalidates the drifter's outgoing probes, joins
  simply start unmeasured), and re-fits lazily: the
  :func:`~repro.estimation.lastmile.estimate_lastmile` quantile fit
  (one array pass per iteration over all nodes) runs only when new
  probes or churn dirtied the model, with unmeasured peers imputed from
  the population median.
* :class:`EstimatedPlatformView` — the planner-facing facade.  It
  mirrors the :class:`~repro.runtime.events.DynamicPlatform` *read* API
  (``alive_ids`` / ``is_alive`` / ``num_alive`` / ``snapshot``) with
  oracle membership and node classes (who is NATed is control-plane
  knowledge) but **estimated** outgoing bandwidths, so
  :class:`~repro.planning.FullRebuildPlanner` and
  :class:`~repro.planning.IncrementalRepairPlanner` consume it without
  change through ``engine.view``.  It also rewrites join/drift events to
  their *observed* bandwidths before they reach the repair planner, and
  scores itself against the oracle (inf-guarded relative errors) for the
  engine's per-epoch accounting.

The view deliberately has no mutation API: events are applied to the
underlying oracle platform by the engine, and the view only *observes*.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.instance import Instance, NodeKind
from .lastmile import _fit_lastmile, guarded_relative_errors
from .measurements import pair_noises

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.events import DynamicPlatform, Event

__all__ = [
    "PROBES_PER_NODE",
    "ProbeRound",
    "ProbeScheduler",
    "OnlineEstimator",
    "EstimatedPlatformView",
]

#: Stream-domain tag for pair *selection* (disjoint from the value
#: streams of :func:`~repro.estimation.measurements.pair_noise`).
_SCHEDULE_DOMAIN = 0x50B3
#: The estimator keys a directed pair as the int64 ``source << 32 |
#: target``, so endpoints must be below 2**31.
_ID_LIMIT = 1 << 31
_LOW_32 = np.int64(0xFFFFFFFF)

#: Default probe budget per node per epoch boundary, shared by the
#: scheduler, the runtime engine, the fleet's amortization and the CLI.
PROBES_PER_NODE = 4.0


class ProbeRound:
    """One round of directed probes as aligned columns (external ids):
    ``sources[k] -> targets[k]`` measured ``values[k]``.

    The scheduler issues rounds in this form and the estimator ingests
    them, so no per-probe object is built on the way.
    """

    __slots__ = ("sources", "targets", "values")

    def __init__(self, sources, targets, values) -> None:
        self.sources = np.asarray(sources, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if not len(self.sources) == len(self.targets) == len(self.values):
            raise ValueError("probe columns must have the same length")

    def __len__(self) -> int:
        return len(self.values)


class ProbeScheduler:
    """Seeded sparse pairwise probing of the live platform.

    ``probes_per_node`` is a *global* budget multiplier: each call issues
    ``round(probes_per_node * num_alive)`` distinct ordered pairs drawn
    uniformly from the alive receivers (the source's bandwidth is the
    tracker's own and needs no probing).  The measured value of a pair
    ``(i, j)`` is ``min(b_out_i, headroom * b_out_j)`` — the LastMile
    pair bandwidth with download capacity modelled as ``headroom`` times
    upload, the asymmetric-access regime of
    :meth:`~repro.estimation.measurements.LastMileGroundTruth.symmetric`
    — times log-normal noise ``exp(N(0, noise_sigma^2))``.

    Everything derives from ``(seed, slot, pair)``: two schedulers with
    the same seed report bit-identical values for every pair they sample
    in common, regardless of budget or process placement.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        probes_per_node: float = PROBES_PER_NODE,
        noise_sigma: float = 0.1,
        headroom: float = 4.0,
    ) -> None:
        if not 0 <= probes_per_node < math.inf:
            raise ValueError(
                f"probes_per_node must be finite and >= 0, "
                f"got {probes_per_node}"
            )
        if not 0 <= noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {noise_sigma}"
            )
        if not headroom > 0:
            raise ValueError(f"headroom must be > 0, got {headroom}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self.probes_per_node = float(probes_per_node)
        self.noise_sigma = float(noise_sigma)
        self.headroom = float(headroom)

    def budget(self, num_alive: int) -> int:
        """Probes one round issues for ``num_alive`` receivers."""
        if num_alive < 2:
            return 0
        return min(
            int(round(self.probes_per_node * num_alive)),
            num_alive * (num_alive - 1),
        )

    def probe(self, platform: "DynamicPlatform", now: int) -> ProbeRound:
        """Issue one round of probes at slot ``now`` (external-id space),
        in ascending order of the flat pair index."""
        ids = platform.alive_ids()
        n = len(ids)
        k = self.budget(n)
        if k <= 0:
            return ProbeRound((), (), ())
        rng = np.random.default_rng((_SCHEDULE_DOMAIN, self.seed, now))
        flat = np.sort(rng.choice(n * (n - 1), size=k, replace=False))
        i, r = np.divmod(flat, n - 1)
        j = r + (r >= i)
        alive = np.array(ids, dtype=np.int64)
        sources, targets = alive[i], alive[j]
        noises = pair_noises(
            self.seed, now, sources, targets, self.noise_sigma
        )
        nodes = platform.nodes
        upload = np.array([nodes[ext].bandwidth for ext in ids])
        sent, received = upload[i], self.headroom * upload[j]
        # Python's min: the receiver side only when strictly smaller.
        pair = np.where(received < sent, received, sent)
        return ProbeRound(sources, targets, pair * noises)


class OnlineEstimator:
    """Decaying probe store + lazily re-fit LastMile estimates.

    One instance serves one engine run.  Probes arrive in *rounds* (one
    per epoch boundary); a stored measurement aged ``a`` rounds carries
    weight ``decay**a`` and is evicted once that weight falls below
    ``min_weight``.  Within the retained window the quantile fit of
    :func:`~repro.estimation.lastmile.estimate_lastmile` treats probes
    equally and the newest probe of a directed pair replaces older ones,
    so the decay governs *how long* a stale observation can keep
    influencing the fit — ``decay=1`` never forgets, small decays
    effectively keep only the last round.

    Churn deltas re-fit incrementally: events and probes only mark the
    model dirty, and the (comparatively expensive) alternating fit runs
    at most once per :meth:`estimates` call that actually observed new
    information.

    Each fitted ``b_out`` is additionally capped by the ``quantile`` of
    the node's *own* outgoing observations (``y_ij <= b_out_i * noise``,
    so that quantile is an upper envelope up to noise).  The alternating
    fit can ratchet a top-bandwidth node's estimate toward its noisiest
    probe — no partner's download capacity can "explain" the swarm's
    largest uplink, so as the estimate climbs only ever-noisier pairs
    remain unexplained — and in the control loop the two error
    directions are not symmetric: an *underestimated* uplink merely
    leaves capacity unused, while an *overestimated* relay is clipped by
    the transport and starves its whole subtree.  The cap (and the
    median default, rather than the offline 0.85) keeps the estimator on
    the cheap side of that asymmetry.

    Before the first fit every peer reads the flat ``prior_bw``; after
    it, peers no probe has measured read the fit's median imputation.
    Nothing carries over from an earlier run, so the estimates depend
    only on this run's probes and churn.
    """

    def __init__(
        self,
        *,
        decay: float = 0.8,
        min_weight: float = 0.05,
        quantile: float = 0.5,
        prior_bw: float = 1.0,
    ) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if not 0.0 < min_weight < 1.0:
            raise ValueError(
                f"min_weight must be in (0, 1), got {min_weight}"
            )
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not 0 <= prior_bw < math.inf:
            raise ValueError(
                f"prior_bw must be finite and >= 0, got {prior_bw}"
            )
        self.decay = float(decay)
        self.min_weight = float(min_weight)
        self.quantile = float(quantile)
        self.prior_bw = float(prior_bw)
        # The probe store: one row per directed pair (the newest probe
        # wins), rows in the order of the round that wrote them, so the
        # rounds column never decreases and expiry drops a prefix.
        self._pairs = np.empty(0, dtype=np.int64)  #: source << 32 | target
        self._values = np.empty(0)
        self._rounds = np.empty(0, dtype=np.int64)
        self._round = 0
        self._dirty = True
        self._fit: Dict[int, float] = {}
        self._fit_alive: Tuple[int, ...] = ()
        self._fit_values = np.zeros(0)
        self.fits = 0  #: alternating fits actually run (vs memo returns)

    @property
    def window(self) -> Optional[int]:
        """Max age (in probe rounds) a measurement survives; None = forever."""
        if self.decay >= 1.0:
            return None
        return int(math.floor(math.log(self.min_weight) / math.log(self.decay)))

    def __len__(self) -> int:
        return len(self._pairs)

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def ingest(self, probes: ProbeRound) -> None:
        """Absorb one round of probes (external-id space).

        The whole round is validated before the store is touched: one
        non-finite or negative probe, or an endpoint outside
        ``[0, 2**31)``, raises :class:`ValueError` and leaves the
        estimator exactly as it was, instead of poisoning every re-fit
        until the probe ages out of the window.
        """
        values = probes.values
        bad = ~(np.isfinite(values) & (values >= 0))
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(
                f"probe values must be finite and >= 0, got "
                f"{probes.sources[k]} -> {probes.targets[k]}: {values[k]!r}"
            )
        for ends in (probes.sources, probes.targets):
            if len(ends) and not (ends.min() >= 0 and ends.max() < _ID_LIMIT):
                raise ValueError(
                    f"probe endpoints must be in [0, 2**31), got "
                    f"{ends.min()}..{ends.max()}"
                )
        self._round += 1
        if len(values):
            # The newest probe of a pair wins, within the round too.
            pairs, last = np.unique(
                (probes.sources << 32 | probes.targets)[::-1],
                return_index=True,
            )
            found = np.minimum(pairs.searchsorted(self._pairs), len(pairs) - 1)
            kept = pairs[found] != self._pairs
            self._pairs = np.concatenate((self._pairs[kept], pairs))
            self._values = np.concatenate(
                (self._values[kept], values[::-1][last])
            )
            self._rounds = np.concatenate(
                (self._rounds[kept], np.full(len(pairs), self._round))
            )
            self._dirty = True
        self._expire()

    def _expire(self) -> None:
        window = self.window
        if window is None:
            return
        stale = int(self._rounds.searchsorted(self._round - window))
        if stale:
            self._keep(slice(stale, None))

    def _keep(self, rows) -> None:
        self._pairs = self._pairs[rows]
        self._values = self._values[rows]
        self._rounds = self._rounds[rows]
        self._dirty = True

    def observe_leave(self, node_id: int) -> None:
        """Drop every measurement touching a departed peer."""
        self._purge(node_id, incoming=True)

    def observe_drift(self, node_id: int) -> None:
        """A drifted upload invalidates the drifter's *outgoing* probes
        (its incoming ones measured the partners' uploads, which still
        stand under the headroom model)."""
        self._purge(node_id, incoming=False)

    def _purge(self, node_id: int, *, incoming: bool) -> None:
        doomed = self._pairs >> 32 == node_id
        if incoming:
            doomed |= self._pairs & _LOW_32 == node_id
        if doomed.any():
            self._keep(~doomed)

    def apply_events(self, events: Iterable["Event"]) -> None:
        """React to applied platform events (the churn delta feed)."""
        # Deferred import: repro.runtime imports repro.estimation-adjacent
        # modules during its own load, so resolve event types lazily
        # (same idiom as repro.planning.repair).
        from ..runtime.events import BandwidthDrift, NodeLeave

        for ev in events:
            if isinstance(ev, NodeLeave):
                self.observe_leave(ev.node_id)
            elif isinstance(ev, BandwidthDrift):
                self.observe_drift(ev.node_id)
            # Joins need no action: the newcomer starts unmeasured and
            # is imputed from the population median until probed.

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def _rows(self, alive: Tuple[int, ...]):
        """The store as fit rows ``(sources, targets, values)``, the
        endpoints as indices into ``alive`` (sorted, like every
        ``alive_ids``); pairs with a departed endpoint sit out.  Store
        order is fine: every quantile of the fit sorts its sample."""
        ids = np.array(alive, dtype=np.int64)
        live = np.ones(len(self._pairs), dtype=bool)
        ends = []
        for column in (self._pairs >> 32, self._pairs & _LOW_32):
            at = np.minimum(ids.searchsorted(column), len(ids) - 1)
            live &= ids[at] == column
            ends.append(at)
        return ends[0][live], ends[1][live], self._values[live]

    def estimates(self, platform: "DynamicPlatform") -> Dict[int, float]:
        """Estimated ``b_out`` for every alive receiver (external ids).

        Memoized: the fit re-runs only when probes or churn dirtied the
        store (or the alive roster changed under an unchanged store).
        """
        alive = tuple(platform.alive_ids())
        if not self._dirty and alive == self._fit_alive:
            return self._fit
        rows = self._rows(alive) if len(alive) >= 2 else None
        if rows is None or not len(rows[0]):
            values = np.full(len(alive), self.prior_bw)
            fit = dict.fromkeys(alive, self.prior_bw)
        else:
            est = _fit_lastmile(
                *rows,
                len(alive),
                quantile=self.quantile,
                unmeasured="median",
            )
            # Conservative envelope (see class docstring): the fit may
            # never exceed the node's own observation quantile — which
            # is exactly the fit's initial b_out.
            values = np.where(est.out_cap < est.b_out, est.out_cap, est.b_out)
            fit = dict(zip(alive, values.tolist()))
            self.fits += 1
        self._fit = fit
        self._fit_alive = alive
        self._fit_values = values
        self._dirty = False
        return fit

    def fit_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The last :meth:`estimates` map as ``(ids, values)`` arrays,
        ids ascending: the same floats, without a per-id lookup."""
        return np.array(self._fit_alive, dtype=np.int64), self._fit_values


class EstimatedPlatformView:
    """What the planner sees: oracle membership, estimated bandwidths.

    Mirrors the read API of :class:`~repro.runtime.events.DynamicPlatform`
    that planners consume (``snapshot`` / ``alive_ids`` / ``is_alive`` /
    ``num_alive``), substituting the estimator's bandwidths, so
    ``RuntimeEngine.view`` can hand either the oracle platform or this
    facade to the planning seam transparently.
    """

    def __init__(
        self,
        platform: "DynamicPlatform",
        scheduler: ProbeScheduler,
        estimator: OnlineEstimator,
    ) -> None:
        self.platform = platform
        self.scheduler = scheduler
        self.estimator = estimator
        self._estimates: Dict[int, float] = {}
        #: ``self._estimates`` as ``(ids, values)`` arrays.
        self._estimate_arrays = (np.zeros(0, dtype=np.int64), np.zeros(0))
        self.total_probes = 0

    # ------------------------------------------------------------------
    # Measurement loop (driven by the engine at epoch boundaries)
    # ------------------------------------------------------------------
    def note_events(self, events: Iterable["Event"]) -> None:
        """Feed applied churn events to the estimator (purges/dirties)."""
        self.estimator.apply_events(events)

    def refresh(self, now: int) -> int:
        """One measurement round at slot ``now``; returns probes issued."""
        probes = self.scheduler.probe(self.platform, now)
        self.estimator.ingest(probes)
        self._estimates = self.estimator.estimates(self.platform)
        self._estimate_arrays = self.estimator.fit_arrays()
        self.total_probes += len(probes)
        return len(probes)

    def observe_event(self, ev: "Event") -> "Event":
        """Rewrite an event to its *observed* form for the planner.

        Joins and drifts carry oracle bandwidths (the platform's ground
        truth); the planner must see the estimator's view of them
        instead.  Leaves are membership facts and pass through.
        """
        from ..runtime.events import BandwidthDrift, NodeJoin

        if isinstance(ev, (NodeJoin, BandwidthDrift)):
            return dataclasses.replace(
                ev, bandwidth=self.bandwidth(ev.node_id)
            )
        return ev

    # ------------------------------------------------------------------
    # DynamicPlatform read API (estimated where it matters)
    # ------------------------------------------------------------------
    @property
    def source_bw(self) -> float:
        return self.platform.source_bw

    @property
    def num_alive(self) -> int:
        return self.platform.num_alive

    def alive_ids(self) -> List[int]:
        return self.platform.alive_ids()

    def is_alive(self, node_id: int) -> bool:
        return self.platform.is_alive(node_id)

    def bandwidth(self, node_id: int) -> float:
        """Estimated outgoing bandwidth of one alive receiver."""
        est = self._estimates.get(node_id)
        if est is not None:
            return est
        return self.estimator.prior_bw

    def snapshot(self) -> Tuple[Instance, List[int]]:
        """Canonical instance of the alive swarm at *estimated* bandwidths.

        Same contract as :meth:`DynamicPlatform.snapshot` — node classes
        and membership are oracle (control-plane knowledge), bandwidths
        are the estimator's.
        """
        from ..core.instance import canonicalize_population

        opens = []
        guardeds = []
        for i, state in sorted(self.platform.nodes.items()):
            if not state.alive:
                continue
            row = (i, self.bandwidth(i))
            if state.kind == NodeKind.OPEN:
                opens.append(row)
            else:
                guardeds.append(row)
        return canonicalize_population(self.platform.source_bw, opens, guardeds)

    # ------------------------------------------------------------------
    # Self-scoring against the oracle (engine accounting)
    # ------------------------------------------------------------------
    def relative_errors(self) -> np.ndarray:
        """Per-alive-receiver relative error vs the oracle platform
        (inf-guarded on dead uplinks — see
        :func:`~repro.estimation.lastmile.guarded_relative_errors`), in
        ascending id order.  Each estimate is :meth:`bandwidth`'s, read
        from the fit's arrays: an id the last fit did not cover reads
        ``prior_bw``."""
        ids, truth = self.platform.alive_capacities()
        known, values = self._estimate_arrays
        estimates = np.full(len(ids), self.estimator.prior_bw)
        if len(known) and len(ids):
            at = np.minimum(known.searchsorted(ids), len(known) - 1)
            hit = known[at] == ids
            estimates[hit] = values[at[hit]]
        return guarded_relative_errors(estimates, truth)

    def median_error(self) -> Optional[float]:
        """Median relative estimation error over alive receivers."""
        errors = self.relative_errors()
        if errors.size == 0:
            return None
        return float(np.median(errors))
