"""Tests for the bandwidth-perturbation robustness experiment and the
Figure 7 export helpers."""

import pytest

from repro import BroadcastScheme, figure1_instance
from repro.analysis import clip_to_capacities, perturbation_experiment
from repro.experiments.figure7 import (
    Figure7Config,
    render_heatmap,
    run_figure7,
    to_csv,
)


class TestClipToCapacities:
    def test_no_clip_when_within_capacity(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 2.0), (0, 2, 2.0)])
        clipped = clip_to_capacities(s, [5.0, 1.0, 1.0])
        assert clipped.isomorphic_rates(s)

    def test_proportional_scaling(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 3.0), (0, 2, 1.0)])
        clipped = clip_to_capacities(s, [2.0, 0.0, 0.0])
        assert clipped.rate(0, 1) == pytest.approx(1.5)
        assert clipped.rate(0, 2) == pytest.approx(0.5)
        assert clipped.out_rate(0) == pytest.approx(2.0)

    def test_zero_capacity_drops_edges(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 3.0)])
        clipped = clip_to_capacities(s, [0.0, 1.0, 1.0])
        assert clipped.num_edges == 0

    def test_original_untouched(self):
        s = BroadcastScheme.from_edges(3, [(0, 1, 3.0)])
        clip_to_capacities(s, [1.0, 1.0, 1.0])
        assert s.rate(0, 1) == 3.0


class TestPerturbation:
    @pytest.fixture(scope="class")
    def reports(self):
        return perturbation_experiment(
            epsilons=(0.05, 0.2), size=20, trials=6, seed=29
        )

    def test_graceful_degradation(self, reports):
        """The conclusion's claim: no cliff under small perturbations."""
        for rep in reports:
            assert rep.worst_delivered >= rep.graceful_floor - 1e-9

    def test_monotone_in_eps(self, reports):
        by_eps = {r.eps: r for r in reports}
        assert (
            by_eps[0.2].worst_delivered
            <= by_eps[0.05].worst_delivered + 1e-9
        )

    def test_mean_at_least_worst(self, reports):
        for rep in reports:
            assert rep.mean_delivered >= rep.worst_delivered - 1e-12
            assert 0.5 < rep.worst_fraction <= 1.0 + 1e-9

    def test_transport_off_by_default(self, reports):
        assert all(r.transport_efficiency is None for r in reports)

    def test_transport_validation_confirms_no_cliff(self):
        """The flow-level claim survives the randomized packet layer.

        Clipping breaks the equal-in-rate property, so this also
        exercises the facade's auto fallback from sharded to reference.
        """
        reports = perturbation_experiment(
            epsilons=(0.1,), size=15, trials=4, seed=29,
            transport_slots=200,
        )
        assert reports[0].transport_efficiency is not None
        assert reports[0].transport_efficiency > 0.8

    def test_transport_backend_is_not_a_keyword(self):
        """Transport validation always runs ``auto``."""
        with pytest.raises(TypeError, match="sim_backend"):
            perturbation_experiment(
                epsilons=(0.1,), size=15, trials=4, seed=29,
                transport_slots=200, sim_backend="reference",
            )


class TestFigure7Exports:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_figure7(
            Figure7Config(max_n=6, max_m=6, stride=2, delta_samples=5)
        )

    def test_heatmap_shape(self, grid):
        out = render_heatmap(grid)
        lines = out.splitlines()
        assert len(lines) == 2 + len(grid.n_values)
        assert all(line.startswith("n=") for line in lines[2:])

    def test_heatmap_digits_only(self, grid):
        for line in render_heatmap(grid).splitlines()[2:]:
            cells = line.split()[1:]
            assert all(c.isdigit() and len(c) == 1 for c in cells)

    def test_csv_roundtrip(self, grid):
        csv = to_csv(grid)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,m,worst_ratio"
        assert len(lines) == 1 + len(grid.n_values) * len(grid.m_values)
        n, m, ratio = lines[1].split(",")
        assert float(ratio) <= 1.0 + 1e-9
