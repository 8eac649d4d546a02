"""planrace: a deterministic simulator of race-based query-plan selection.

The package models a document store whose optimizer picks execution plans
by partially running all candidates in a round-robin race and scoring
their progress, instead of estimating costs. A selectivity-grid harness
measures how often the racing choice matches the truly fastest plan and
renders the results as plan diagrams and impact heatmaps.
"""

from .engine import (
    Collection,
    IndexCatalog,
    Projection,
    Query,
    RangePredicate,
    generate_dataset,
    load_dataset,
    query_shape,
    save_dataset,
    selectivity,
)
from .errors import PlanraceError
from .executor import CostModel, PlanExecution, WorkState, run_to_completion
from .optimizer import (
    OptimizeResult,
    PlanCache,
    RaceKnobs,
    Score,
    TrialStats,
    optimize,
    pick_best,
    race,
    score_plan,
)
from .plans import (
    CandidatePlan,
    OptimizerVariant,
    PlanId,
    PlanKind,
    enumerate_candidates,
    parse_plan_hint,
)
from .scenarios import SCENARIOS, Scenario, get_scenario

__version__ = "0.1.0"
