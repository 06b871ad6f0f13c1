"""Tests for Theorem 4.1: dichotomic search, the Lemma 4.6 packing, and
the per-class degree guarantees."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    InfeasibleThroughputError,
    Instance,
    acyclic_guarded_scheme,
    acyclic_open_optimum,
    cyclic_optimum,
    optimal_acyclic_throughput,
    order_lp_throughput,
    scheme_from_word,
    scheme_throughput,
)
from repro.algorithms import acyclic_guarded, greedy
from repro.algorithms.acyclic_guarded import SEARCH_MAX_ITER, SEARCH_REL_TOL
from repro.algorithms.greedy import (
    _greedy_threshold,
    _greedy_word_fast,
    greedy_test,
)
from repro.algorithms.acyclic_guarded import pack_word
from repro.core.exact_words import exact_acyclic_optimum
from repro.core.numerics import ABS_TOL, safe_ceil_div
from repro.core.scheme import BroadcastScheme
from repro.runtime.events import EventQueue
from repro.runtime.scenarios import SteadyChurn
from repro.service import ControlPlane, MigrateSession, StartSession
from repro.sessions import make_fleet

from .conftest import instances, open_instances


@pytest.fixture
def fig1():
    return Instance(6.0, (5.0, 5.0), (4.0, 1.0, 1.0))


class TestDichotomicSearch:
    def test_fig1_value_and_word(self, fig1):
        t, word = optimal_acyclic_throughput(fig1)
        assert t == pytest.approx(4.0, rel=1e-9)
        assert word == "gogog"

    def test_open_only_matches_closed_form(self):
        inst = Instance.open_only(10.0, (6.0, 5.0, 3.0, 1.0))
        t, word = optimal_acyclic_throughput(inst)
        assert t == pytest.approx(acyclic_open_optimum(inst), rel=1e-9)
        assert word == "oooo"

    def test_no_receivers(self):
        t, word = optimal_acyclic_throughput(Instance(3.0))
        assert t == float("inf")
        assert word == ""

    def test_zero_bandwidth_source(self):
        t, _ = optimal_acyclic_throughput(Instance(0.0, (5.0,), ()))
        assert t == 0.0

    def test_short_circuit_when_cyclic_optimum_acyclic(self):
        # a star-feasible instance: acyclic achieves the cyclic optimum
        inst = Instance(10.0, (0.0, 0.0), ())
        t, _ = optimal_acyclic_throughput(inst)
        assert t == pytest.approx(cyclic_optimum(inst))

    @given(instances())
    def test_result_bracketed(self, inst):
        t, word = optimal_acyclic_throughput(inst)
        if inst.num_receivers == 0:
            return
        assert 0.0 <= t <= cyclic_optimum(inst) + 1e-9
        if t > 0:
            from repro import is_valid_word

            assert is_valid_word(inst, word, t, slack=1e-9 * t)

    @given(instances(max_open=4, max_guarded=4))
    def test_matches_order_lp_on_own_word(self, inst):
        """The dichotomic optimum equals the LP optimum of its own word
        (conservative feeding is dominant for a fixed order, Lemma 4.3)."""
        t, word = optimal_acyclic_throughput(inst)
        if inst.num_receivers == 0 or t == float("inf"):
            return
        t_lp = order_lp_throughput(inst, word)
        assert t == pytest.approx(t_lp, rel=1e-6, abs=1e-9)


class TestSchemeFromWord:
    def test_figure2_scheme_reproduced(self, fig1):
        scheme = scheme_from_word(fig1, "googg", 4.0)
        expected = {
            (0, 3): 4.0,
            (3, 1): 4.0,
            (0, 2): 2.0,
            (1, 2): 2.0,
            (1, 4): 3.0,
            (2, 4): 1.0,
            (2, 5): 4.0,
        }
        assert {(i, j): r for i, j, r in scheme.edges()} == pytest.approx(
            expected
        )

    def test_figure5_scheme_valid(self, fig1):
        scheme = scheme_from_word(fig1, "gogog", 4.0)
        scheme.validate(fig1, require_acyclic=True)
        assert scheme_throughput(scheme, fig1) == pytest.approx(4.0)

    def test_every_node_receives_exactly_t(self, fig1):
        scheme = scheme_from_word(fig1, "gogog", 4.0)
        rates = scheme.in_rates()
        for v in fig1.receivers():
            assert rates[v] == pytest.approx(4.0)

    def test_invalid_word_raises(self, fig1):
        # 'ggg...' first would need 3*4 = 12 > b0 = 6 of source bandwidth
        with pytest.raises(InfeasibleThroughputError):
            scheme_from_word(fig1, "gggoo", 4.0)

    def test_zero_rate_empty(self, fig1):
        assert scheme_from_word(fig1, "gogog", 0.0).num_edges == 0

    def test_wrong_word_shape_rejected(self, fig1):
        with pytest.raises(ValueError):
            scheme_from_word(fig1, "gog", 1.0)

    @given(instances(max_open=5, max_guarded=5))
    def test_packing_achieves_search_optimum(self, inst):
        t, word = optimal_acyclic_throughput(inst)
        if inst.num_receivers == 0 or t <= 0 or t == float("inf"):
            return
        scheme = scheme_from_word(inst, word, t)
        scheme.validate(inst, require_acyclic=True)
        assert scheme_throughput(scheme, inst) >= t * (1 - 1e-6)


def _edge_bits(scheme):
    """Edges in :meth:`BroadcastScheme.edges` order, rates as ``float.hex``."""
    return [(i, j, rate.hex()) for i, j, rate in scheme.edges()]


def _add_rate_packing(inst, word, rate):
    """Lemma 4.6 packing through the checked ``add_rate`` sink."""
    scheme = BroadcastScheme.for_instance(inst)
    pack_word(inst, word, rate, scheme.add_rate)
    return scheme


class TestPackingSink:
    """``scheme_from_word`` stores each draw straight into the fresh
    scheme's rows; that must be exactly what ``add_rate`` builds."""

    @settings(max_examples=max(300, settings.default.max_examples))
    @given(
        inst=instances(max_open=8, max_guarded=8),
        fraction=st.sampled_from((1.0, 0.999, 0.5)),
    )
    def test_direct_sink_matches_add_rate_packing(self, inst, fraction):
        t, word = optimal_acyclic_throughput(inst)
        if t == float("inf"):
            return
        rate = t * fraction
        if fraction != 1.0:
            word = greedy_test(inst, rate).word
        assert _edge_bits(scheme_from_word(inst, word, rate)) == _edge_bits(
            _add_rate_packing(inst, word, rate)
        )

    def test_dust_draw_is_dropped_alike(self):
        """A guarded peer with 1e-12 of upload is pooled and drawn by the
        next open receiver: a draw ``<= ABS_TOL`` that neither sink keeps."""
        inst = Instance(3.0, (1.0,), (1e-12,))
        draws = []
        pack_word(inst, "go", 1.0, lambda *edge: draws.append(edge))
        assert (2, 1, 1e-12) in draws and 1e-12 <= ABS_TOL
        fresh = scheme_from_word(inst, "go", 1.0)
        assert _edge_bits(fresh) == _edge_bits(
            _add_rate_packing(inst, "go", 1.0)
        )
        assert fresh.rate(2, 1) == 0.0 and fresh.num_edges == 2

    def test_integer_rate_stores_floats(self, fig1):
        fresh = scheme_from_word(fig1, "googg", 4)
        assert _edge_bits(fresh) == _edge_bits(
            _add_rate_packing(fig1, "googg", 4)
        )


class TestDegreeGuarantees:
    """Theorem 4.1: guarded +1; one open node +3; other opens +2."""

    def _check(self, inst, scheme, t):
        if t <= 0:
            return
        over_two = 0
        for i in range(inst.num_nodes):
            deg = scheme.outdegree(i)
            base = safe_ceil_div(inst.bandwidth(i), t)
            if inst.is_guarded(i):
                assert deg <= base + 1, f"guarded node {i}: {deg} > {base}+1"
            else:
                assert deg <= base + 3, f"open node {i}: {deg} > {base}+3"
                if deg > base + 2:
                    over_two += 1
        assert over_two <= 1, "more than one open node above ceil+2"

    def test_fig1(self, fig1):
        sol = acyclic_guarded_scheme(fig1)
        self._check(fig1, sol.scheme, sol.throughput)

    @given(instances(max_open=8, max_guarded=8))
    def test_random_instances(self, inst):
        if inst.num_receivers == 0:
            return
        sol = acyclic_guarded_scheme(inst)
        if sol.throughput == float("inf"):
            return
        sol.scheme.validate(inst, require_acyclic=True)
        self._check(inst, sol.scheme, sol.throughput)

    @given(open_instances())
    def test_open_only_through_pipeline(self, inst):
        sol = acyclic_guarded_scheme(inst)
        sol.scheme.validate(inst, require_acyclic=True)
        self._check(inst, sol.scheme, sol.throughput)


class TestPipeline:
    def test_explicit_target(self, fig1):
        sol = acyclic_guarded_scheme(fig1, 3.0)
        assert sol.throughput == 3.0
        assert scheme_throughput(sol.scheme, fig1) >= 3.0 - 1e-9

    def test_infeasible_target_raises(self, fig1):
        with pytest.raises(InfeasibleThroughputError):
            acyclic_guarded_scheme(fig1, 4.2)

    @pytest.mark.parametrize("word", [None, "gogog"])
    def test_nan_target_raises(self, fig1, word):
        with pytest.raises(InfeasibleThroughputError):
            acyclic_guarded_scheme(fig1, float("nan"), word=word)

    def test_negative_target_is_the_zero_word_case(self, fig1):
        sol = acyclic_guarded_scheme(fig1, -1.0)
        assert sol.word == "gggoo"
        assert sol.scheme.num_edges == 0

    def test_custom_word(self, fig1):
        sol = acyclic_guarded_scheme(fig1, 4.0, word="googg")
        assert sol.word == "googg"
        assert scheme_throughput(sol.scheme, fig1) == pytest.approx(4.0)

    def test_invalid_custom_word_raises(self, fig1):
        with pytest.raises(InfeasibleThroughputError):
            acyclic_guarded_scheme(fig1, 4.0, word="gggoo")


class TestConservativeness:
    """Schemes from the packing are conservative (Lemma 4.3 semantics):
    no open->open transfer while an earlier guarded node still has unused
    bandwidth that could have served the same receiver."""

    def _is_conservative(self, inst, scheme, order):
        pos = {node: k for k, node in enumerate(order)}
        for j, k, rate in scheme.edges():
            if not (inst.is_open(j) and inst.is_open(k)) or rate <= 0:
                continue
            for i in order:
                if not inst.is_guarded(i) or pos[i] >= pos[k]:
                    continue
                # bandwidth of guarded i spent on nodes up to position k
                spent = sum(
                    scheme.rate(i, order[l])
                    for l in range(pos[i] + 1, pos[k] + 1)
                )
                if spent < inst.bandwidth(i) - 1e-9:
                    return False
        return True

    def test_fig2_scheme_conservative(self, fig1):
        from repro import word_to_order

        scheme = scheme_from_word(fig1, "googg", 4.0)
        assert self._is_conservative(
            fig1, scheme, word_to_order(fig1, "googg")
        )

    def test_figure4_style_scheme_not_conservative(self, fig1):
        """The paper's Figure 4 counter-example: C1 takes source bandwidth
        while guarded C3 still has spare upload."""
        from repro import BroadcastScheme, word_to_order

        scheme = BroadcastScheme.from_edges(
            6,
            [
                (0, 3, 4.0),
                (0, 1, 2.0),  # open->open while C3 has spare bandwidth
                (3, 1, 2.0),
                (3, 2, 2.0),
                (1, 2, 2.0),
                (1, 4, 3.0),
                (2, 4, 1.0),
                (2, 5, 4.0),
            ],
        )
        assert not self._is_conservative(
            fig1, scheme, word_to_order(fig1, "googg")
        )

    @given(instances(max_open=5, max_guarded=5))
    def test_packing_always_conservative(self, inst):
        from repro import word_to_order

        t, word = optimal_acyclic_throughput(inst)
        if inst.num_receivers == 0 or t <= 0 or t == float("inf"):
            return
        scheme = scheme_from_word(inst, word, t)
        assert self._is_conservative(inst, scheme, word_to_order(inst, word))


# ----------------------------------------------------------------------
# The verdict-inferring T*_ac search against the plain bisection
# ----------------------------------------------------------------------
def _reference_search(instance, *, probe=_greedy_word_fast):
    """The plain dichotomic search the verdict-inferring one replaced,
    kept verbatim as the oracle (``probe`` lets a test count calls)."""
    if instance.num_receivers == 0:
        return float("inf"), ""
    hi = cyclic_optimum(instance)
    if hi <= 0.0:
        return 0.0, greedy_test(instance, 0.0).word
    b0 = instance.source_bw
    opens, guardeds = instance.open_bws, instance.guarded_bws
    word_hi = probe(b0, opens, guardeds, hi)
    if word_hi is not None:
        return hi, word_hi
    lo = 0.0
    word = greedy_test(instance, 0.0).word
    for _ in range(SEARCH_MAX_ITER):
        if hi - lo <= SEARCH_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        cand = probe(b0, opens, guardeds, mid)
        if cand is not None:
            lo, word = mid, cand
        else:
            hi = mid
    return lo, word


def _bits(result):
    rate, word = result
    return rate.hex(), word


#: Bandwidth magnitudes: ordinary, near the bottom of the normal range,
#: and large.
_SCALES = (1.0, 1e-300, 1e12)


@st.composite
def adversarial_instances(draw):
    """Instances built to break float shortcuts: bandwidth ties, zero
    bandwidths, a source at the Lemma 5.1 fixed point, extreme
    magnitudes, and open-only / guarded-only populations."""
    scale = draw(st.sampled_from(_SCALES))
    unit = st.one_of(
        st.just(0.0),
        st.sampled_from((1.0, 2.0, 3.0, 5.0, 8.0)),
        st.floats(min_value=0.0, max_value=10.0),
    )
    shape = draw(st.sampled_from(("mixed", "open", "guarded")))
    n = 0 if shape == "guarded" else draw(st.integers(0, 30))
    m = 0 if shape == "open" else draw(st.integers(0, 30))
    if n + m == 0:
        n = 1
    opens = [draw(unit) * scale for _ in range(n)]
    guardeds = [draw(unit) * scale for _ in range(m)]
    if draw(st.booleans()):
        # Tie every other node of both classes to one drawn bandwidth.
        tie = draw(st.sampled_from(opens + guardeds))
        opens[::2] = [tie] * len(opens[::2])
        guardeds[1::2] = [tie] * len(guardeds[1::2])
    source = draw(st.sampled_from(("drawn", "fixed-point", "integer")))
    if source == "fixed-point" and n + m > 1:
        # b0 = (b0 + S) / (n + m): the source equals the average bound.
        b0 = math.fsum(opens + guardeds) / (n + m - 1)
    elif source == "integer":
        b0 = draw(st.sampled_from((1.0, 2.0, 5.0))) * scale
    else:
        b0 = draw(st.floats(min_value=0.01, max_value=20.0)) * scale
    return Instance(b0, tuple(opens), tuple(guardeds))


class TestSearchEquivalence:
    """The search probes only midpoints whose verdict is unknown, yet
    returns the plain bisection's ``(T, word)`` bit for bit."""

    @settings(max_examples=max(1000, settings.default.max_examples))
    @given(adversarial_instances())
    def test_matches_plain_bisection(self, inst):
        assert _bits(optimal_acyclic_throughput(inst)) == _bits(
            _reference_search(inst)
        )

    @pytest.mark.parametrize(
        "inst",
        [
            Instance(6.0, (5.0, 5.0), (4.0, 1.0, 1.0)),
            Instance(4.0, (2.0, 2.0, 2.0), (2.0, 2.0, 2.0)),  # all ties
            Instance(3.0, (0.0, 0.0, 7.0), (0.0, 1.0)),  # zero bandwidths
            Instance(5.0, (6.0, 4.0), (3.0, 2.0)),  # b0 = S / (n + m - 1)
            Instance(6e-300, (5e-300, 5e-300), (4e-300, 1e-300, 1e-300)),
            Instance(6e12, (5e12, 5e12), (4e12, 1e12, 1e12)),
            Instance(7.0, (1e12, 3.0, 1e-3), (2.0, 1e-3)),  # mixed scales
            Instance.open_only(10.0, (6.0, 5.0, 3.0, 1.0)),
            Instance(9.0, (), (8.0, 4.0, 4.0, 1.0)),
        ],
    )
    def test_matches_on_hand_picked_cases(self, inst):
        assert _bits(optimal_acyclic_throughput(inst)) == _bits(
            _reference_search(inst)
        )

    @pytest.mark.parametrize("estimate", ["none", "low", "high", "zero"])
    @given(inst=instances(max_open=12, max_guarded=12))
    def test_any_estimate_gives_the_same_bits(self, estimate, inst):
        """The estimate only places two probes: a missing or wrong one
        costs probes, never bits."""
        exact = _greedy_threshold

        def fake(b0, opens, guardeds, start):
            tau = exact(b0, opens, guardeds, start)
            if estimate == "none" or tau is None:
                return None
            return {"low": 0.9 * tau, "high": 1.1 * tau, "zero": 0.0}[estimate]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acyclic_guarded, "_greedy_threshold", fake)
            got = optimal_acyclic_throughput(inst)
        assert _bits(got) == _bits(_reference_search(inst))

    @staticmethod
    def _pin_just_above(monkeypatch, inst):
        """Aim the estimate so its lower pin lands one ulp above the plain
        result ``t``: the search then infers ``lo = t`` and must probe
        ``t`` for its word.  Returns ``t`` and the probe log."""
        t, _ = _reference_search(inst)
        aim = math.nextafter(t, math.inf) / (1.0 - acyclic_guarded._PIN_REL)
        monkeypatch.setattr(
            acyclic_guarded, "_greedy_threshold", lambda *args: aim
        )
        rates = []
        monkeypatch.setattr(
            acyclic_guarded,
            "_greedy_word_fast",
            lambda *args: rates.append(args[3]) or _greedy_word_fast(*args),
        )
        return t, rates

    def test_inferred_lo_is_probed_for_its_word(self, monkeypatch, fig1):
        t, rates = self._pin_just_above(monkeypatch, fig1)
        assert _bits(optimal_acyclic_throughput(fig1)) == _bits(
            _reference_search(fig1)
        )
        assert rates[-1] == t and rates.count(t) == 1
        assert any(r > t for r in rates[:-1] if r < t * (1 + 1e-13))

    def test_non_monotone_oracle_still_returns_a_probed_pair(
        self, monkeypatch, fig1
    ):
        """Should rounding ever make the oracle fail at an inferred-
        feasible rate, the search returns the probed rate above it."""
        t, _ = self._pin_just_above(monkeypatch, fig1)
        args = (fig1.source_bw, fig1.open_bws, fig1.guarded_bws)
        monkeypatch.setattr(
            acyclic_guarded,
            "_greedy_word_fast",
            lambda *a: None if a[3] == t else _greedy_word_fast(*a),
        )
        rate, word = optimal_acyclic_throughput(fig1)
        assert t < rate < t * (1.0 + 1e-12)
        assert word == _greedy_word_fast(*args, rate)


def _serve_session_instances():
    """The session instances of the serve-tcp fleet after a few seeded
    paired migrations."""
    fleet = make_fleet(SteadyChurn(size=160), 4, 1, overlap=0.1)
    plane = ControlPlane(fleet.platform)
    for sp in fleet.sessions:
        plane.submit(
            StartSession(
                name=sp.name,
                source_bw=sp.source_bw,
                demand=sp.demand,
                priority=sp.priority,
                members=sp.members,
            )
        )
    rng = random.Random(7)
    members = {sp.name: list(sp.members) for sp in fleet.sessions}
    names = sorted(members)
    seen = {}
    for _ in range(6):
        src, dst = rng.sample(names, 2)
        pool = [n for n in members[src] if n not in set(members[dst])]
        moved = tuple(sorted(rng.sample(pool, 3)))
        members[src] = [n for n in members[src] if n not in moved]
        members[dst].extend(moved)
        plane.submit_batch(
            (
                MigrateSession(name=src, remove=moved),
                MigrateSession(name=dst, add=moved),
            )
        )
        for entry in plane.sessions.values():
            seen[entry.plan.instance] = None
    return list(seen)


class TestProbeCount:
    def test_mean_probes_per_solve_pinned(self, monkeypatch):
        """Deterministic probe counts guard the gain without timing: the
        plain bisection spends ~38 Algorithm 2 probes per solve here."""
        insts = _serve_session_instances()
        assert len(insts) >= 10
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return _greedy_word_fast(*args)

        for inst in insts:
            _reference_search(inst, probe=counting)
        plain = calls[0] / len(insts)
        calls[0] = 0
        monkeypatch.setattr(acyclic_guarded, "_greedy_word_fast", counting)
        for inst in insts:
            optimal_acyclic_throughput(inst)
        inferred = calls[0] / len(insts)
        assert plain > 30
        assert inferred <= 20


def _churn_snapshots(seeds=(1, 2, 3, 4)):
    """Distinct snapshots of ``SteadyChurn(size=150)`` populations (the
    churn-oracle workload's size): each seeded platform before and after
    every one of its scenario's events."""
    seen = {}
    for seed in seeds:
        run = SteadyChurn(size=150).build(seed)
        platform = run.platform
        seen[platform.snapshot()[0]] = None
        for ev in EventQueue(run.events).drain():
            platform.apply(ev)
            seen[platform.snapshot()[0]] = None
    return list(seen)


class TestChurnSizedSearch:
    """Churn-sized snapshots need more parametric passes than the serve
    sessions; with enough, every estimate settles and the search stays
    the plain bisection bit for bit."""

    def test_matches_plain_bisection(self):
        for inst in _churn_snapshots():
            assert _bits(optimal_acyclic_throughput(inst)) == _bits(
                _reference_search(inst)
            )

    def test_every_estimate_settles(self, monkeypatch):
        """Each ``_greedy_threshold`` call the search makes (from its
        step-8 ``feas``) returns an estimate, not ``None``."""
        estimates = []

        def spy(*args):
            estimates.append(_greedy_threshold(*args))
            return estimates[-1]

        monkeypatch.setattr(acyclic_guarded, "_greedy_threshold", spy)
        for inst in _churn_snapshots():
            optimal_acyclic_throughput(inst)
        assert len(estimates) >= 20
        assert None not in estimates

    def test_mean_probes_per_solve_pinned(self, monkeypatch):
        """The plain bisection spends ~13.7 probes per solve here (most
        snapshots stop at the cyclic bracket); the search spends ~4.6,
        and ~8.5 when a pass budget of 8 leaves 11 of 26 estimates
        unsettled."""
        insts = _churn_snapshots()
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return _greedy_word_fast(*args)

        for inst in insts:
            _reference_search(inst, probe=counting)
        plain = calls[0] / len(insts)
        calls[0] = 0
        monkeypatch.setattr(acyclic_guarded, "_greedy_word_fast", counting)
        for inst in insts:
            optimal_acyclic_throughput(inst)
        inferred = calls[0] / len(insts)
        assert plain > 10
        assert inferred <= 6


class TestThresholdEstimate:
    """The parametric pass, when it settles, is Algorithm 2's threshold,
    which Lemma 4.5 makes ``T*_ac``: checked against the exhaustive
    rational oracle."""

    @settings(max_examples=30)
    @given(instances(max_open=6, max_guarded=6))
    def test_estimate_matches_exact_optimum(self, inst):
        if inst.num_receivers == 0:
            return
        exact, _ = exact_acyclic_optimum(
            inst.source_bw, inst.open_bws, inst.guarded_bws
        )
        t, _ = optimal_acyclic_throughput(inst)
        for start in (0.0, t * (1.0 - 2.0**-8)):
            est = _greedy_threshold(
                inst.source_bw, inst.open_bws, inst.guarded_bws, start
            )
            if est is not None:
                assert est == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_infeasible_start_gives_no_estimate(self, fig1):
        assert _greedy_threshold(6.0, (5.0, 5.0), (4.0, 1.0, 1.0), 4.5) is None

    def test_no_estimate_when_the_passes_run_out(self, monkeypatch, fig1):
        args = (fig1.source_bw, fig1.open_bws, fig1.guarded_bws, 0.0)
        assert _greedy_threshold(*args) == pytest.approx(4.0, rel=1e-15)
        monkeypatch.setattr(greedy, "_THRESHOLD_PASSES", 1)
        assert _greedy_threshold(*args) is None
