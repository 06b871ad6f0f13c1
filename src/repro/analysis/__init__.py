"""Analysis extensions: scheme metrics, depth-aware packing (the paper's
"minimize delays" future work), and churn-resilience experiments (the
paper's conclusion caveat, quantified)."""

from .churn import ChurnReport, churn_experiment
from .depth import (
    DepthAblationRow,
    depth_ablation,
    depth_aware_scheme_from_word,
)
from .estimation_gap import (
    EstimationGapRow,
    estimated_plan_outcome,
    estimation_gap_experiment,
)
from .fleet import (
    FleetFlowReport,
    FlowSessionRow,
    fleet_flow_report,
    jain_fairness,
)
from .metrics import SchemeStats, compare_stats, scheme_depths, scheme_stats
from ..flows.arborescence import clip_to_capacities
from .robustness import RobustnessReport, perturbation_experiment
from .scale import (
    ScaleReport,
    ShardFleet,
    build_fleet,
    measure_scale,
    peak_rss_kb,
)
from .service import (
    ServiceReport,
    migration_fork_check,
    service_experiment,
)
from .warmstart import WarmForkReport, warm_snapshot_ab

__all__ = [
    "scheme_depths",
    "scheme_stats",
    "SchemeStats",
    "compare_stats",
    "depth_aware_scheme_from_word",
    "depth_ablation",
    "DepthAblationRow",
    "churn_experiment",
    "ChurnReport",
    "estimation_gap_experiment",
    "estimated_plan_outcome",
    "EstimationGapRow",
    "perturbation_experiment",
    "clip_to_capacities",
    "RobustnessReport",
    "fleet_flow_report",
    "FleetFlowReport",
    "FlowSessionRow",
    "jain_fairness",
    "warm_snapshot_ab",
    "WarmForkReport",
    "service_experiment",
    "migration_fork_check",
    "ServiceReport",
    "measure_scale",
    "build_fleet",
    "ScaleReport",
    "ShardFleet",
    "peak_rss_kb",
]
