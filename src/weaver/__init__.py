"""Budget-constrained multi-agent orchestration with learned collaboration modules."""

from .core import (
    ActionCosts,
    ActionId,
    ActionKind,
    Action,
    CostLedger,
    CostProfile,
    CostRecord,
    PriceSheet,
    DEFAULT_PRICES,
    TokenUsage,
    as_dollars,
    price_cost,
)
from .tasks import Task, load_tasks, save_tasks, synthetic_tasks, grade
from .agents import ChatBackend, ChatClient, SyntheticWorld, WorldParams
from .collab import (
    CollaborationModule,
    Ensemble,
    Interactive,
    ModuleExecutor,
    ModuleRegistry,
    Pipeline,
    Single,
    builtin_catalog,
)
from .planner import TransitionPrior, plan_step
from .policy import RulePolicy
from .orchestrator import Method, RunConfig, RunResult, run_task
from .reflection import TrajectoryStore, estimate_costs, mine_modules, run_selfplay
from .bench import SweepConfig, acc_at_b, emit_reports, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ActionCosts",
    "ActionId",
    "ActionKind",
    "Action",
    "CostLedger",
    "CostProfile",
    "CostRecord",
    "PriceSheet",
    "DEFAULT_PRICES",
    "TokenUsage",
    "as_dollars",
    "price_cost",
    "Task",
    "load_tasks",
    "save_tasks",
    "synthetic_tasks",
    "grade",
    "ChatBackend",
    "ChatClient",
    "SyntheticWorld",
    "WorldParams",
    "CollaborationModule",
    "Ensemble",
    "Interactive",
    "ModuleExecutor",
    "ModuleRegistry",
    "Pipeline",
    "Single",
    "builtin_catalog",
    "TransitionPrior",
    "plan_step",
    "RulePolicy",
    "Method",
    "RunConfig",
    "RunResult",
    "run_task",
    "TrajectoryStore",
    "estimate_costs",
    "mine_modules",
    "run_selfplay",
    "SweepConfig",
    "acc_at_b",
    "emit_reports",
    "run_sweep",
    "__version__",
]
