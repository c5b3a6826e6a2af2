"""Top-level policy loop and baseline methods.

One run = one task, one ledger, one backend session. All six methods share
one body, ``_run_method``: policy passes (up to ``n_attempts`` for
best-of-N, one otherwise), a vote over the passes that finished, and for
``iter_verify`` critique-and-revise rounds. A pass's loop runs while
steps, budget, and an unfinished task all remain; a step begins only with
positive remaining budget. ``_Run.next_action`` chooses it, the one place
a method's step differs: weaver plans it (``planner.plan_step``), every
other method samples it from the pass's policy, and only a budget-aware
method's policy (``_Run.policy_for``) conditions on the remaining budget,
through the run's one ``ActionCosts`` table, which weaver's planner prices
with too. ``_Run.act`` then executes the action to completion (which may
overshoot, flagged in the result) and logs exactly one record. When no
pass emitted a finish action the history's ``best_effort_answer`` is
logged as a final zero- or policy-cost finish step. Each logged step
records its floor (``HistoryEntry.floor``): the largest cost threshold it
compared with the remaining budget and found at or below it. ``cut_run``
reads any method's run at a smaller budget off its run at a larger one, by
running the same method body over a replay of the larger run's steps,
which overrides only ``next_action`` and ``act``; a step replays while the
remaining budget is at least its floor. React at a
budget is the start of ``iter_verify`` at that budget, so ``cut_run`` also
reads react's run off ``iter_verify``'s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .agents import (
    DONE_MARK,
    Role,
    WorkerAgent,
    WorldParams,
    _digest,
    parse_final,
)
from .collab import SOFT_FAILURES, ModuleExecutor, ModuleRegistry
from .core import (
    Action,
    ActionCosts,
    ActionId,
    CostLedger,
    CostProfile,
    DEFAULT_PRICES,
    FINISH,
    HistoryEntry,
    PriceSheet,
    as_dollars,
    check_history,
    positive_budget,
    price_cost,
    sum_records,
)
from .planner import (
    DEFAULT_DEPTH_LIMIT,
    DEFAULT_K,
    DEFAULT_N_ROLLOUTS,
    FeasibleSet,
    PlanCosts,
    TransitionPrior,
    plan_step,
)
from .policy import RulePolicy, best_effort_answer
from .streams import StreamTable
from .tasks import Task, grade, normalize_answer


class Method(str, Enum):
    REACT = "react"
    BEST_OF_N = "best_of_n"
    ITER_VERIFY = "iter_verify"
    MODULES_UNAWARE = "modules_unaware"
    MODULES_PROMPT = "modules_prompt"
    WEAVER = "weaver"


MODULE_METHODS = {Method.MODULES_UNAWARE, Method.MODULES_PROMPT, Method.WEAVER}
BUDGET_AWARE_METHODS = {Method.MODULES_PROMPT, Method.WEAVER}


# Agent name -> model; the roster and the config's `models` section default to this.
DEFAULT_MODELS = {
    "search": "claude-3-5-haiku-latest",
    "browse": "claude-3-5-haiku-latest",
    "reason": "claude-3-7-sonnet-latest",
    "critic": "claude-3-7-sonnet-latest",
}


def default_roster(models: Mapping[str, str] | None = None) -> dict[str, WorkerAgent]:
    """Standard four-worker roster; ``models`` overrides per agent name."""
    chosen = {**DEFAULT_MODELS, **(models or {})}
    roles = {
        "search": Role.SEARCHER,
        "browse": Role.READER,
        "reason": Role.REASONER,
        "critic": Role.CRITIC,
    }
    return {
        name: WorkerAgent(ActionId.agent(name), roles[name], model)
        for name, model in chosen.items()
        if name in roles
    }


def action_space(roster: Mapping[str, WorkerAgent], modules: Iterable = ()) -> list[ActionId]:
    """Every roster agent, then every module in ``modules``, then finish: the
    order a policy samples from and weaver's prior counts transitions over."""
    return [agent.id for agent in roster.values()] + [m.id for m in modules] + [FINISH]


@dataclass(frozen=True, kw_only=True)
class RunParams:
    """The per-run knobs every method shares; the one home of their defaults."""

    t_max: int = 12
    k: int = DEFAULT_K
    n_rollouts: int = DEFAULT_N_ROLLOUTS
    depth_limit: int = DEFAULT_DEPTH_LIMIT
    n_attempts: int = 3
    meter_orchestrator_tokens: bool = True
    prices: PriceSheet = DEFAULT_PRICES

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if self.k < 1 or self.n_rollouts < 1 or self.depth_limit < 1:
            raise ValueError("planner parameters must be at least 1")
        if self.n_attempts < 1:
            raise ValueError("n_attempts must be at least 1")

    def run_config(self, method, budget) -> RunConfig:
        """These knobs under one method and budget."""
        shared = {f.name: getattr(self, f.name) for f in fields(RunParams)}
        return RunConfig(method=Method(method), budget=budget, **shared)


@dataclass(frozen=True, kw_only=True)
class RunConfig(RunParams):
    method: Method
    budget: Decimal
    uniform_h: bool = False

    def __post_init__(self):
        # Quantized once here, so the overshoot flag agrees with CostLedger and Acc@B.
        object.__setattr__(self, "budget", positive_budget(self.budget))
        super().__post_init__()


@dataclass(frozen=True)
class RunResult:
    task_id: str
    final_answer: str | None
    solved: bool
    total_cost: Decimal
    overshoot: bool
    steps: int
    trajectory: tuple[HistoryEntry, ...]
    error: str | None = None


class _Run:
    """Mutable state for one task run; shared by every method body."""

    def __init__(self, task: Task, config: RunConfig):
        self.task = task
        self.config = config
        self.ledger = CostLedger(config.budget)
        self.history: list[HistoryEntry] = []
        self.costed = 0  # ledger entries already costed into logged steps
        self.error: str | None = None

    def begin(self, backend, registry, cost_profile, seed, roster, prior) -> None:
        """List the action space, open the backend session and, for a
        budget-aware method, price the action space (``costs``).

        The last two may raise; ``MissingCostProfile`` names every action
        weaver's planner finds unpriced.
        """
        self.registry = registry if registry is not None else ModuleRegistry()
        self.seed = int(seed)
        self.roster = roster or default_roster()
        modules = self.registry.modules() if self.config.method in MODULE_METHODS else ()
        self.space = action_space(self.roster, modules)
        self.session = backend.session(self.task.id)
        # A synthetic world's table lives for its sweep seed; a wire run keeps its own.
        self.streams = getattr(backend, "streams", None) or StreamTable()
        self.executor = ModuleExecutor(self.session, self.roster, self.ledger, self.config.prices)
        params = getattr(backend, "params", None)
        self.orch_model = getattr(params, "orchestrator_model", WorldParams.orchestrator_model)
        aware = self.config.method in BUDGET_AWARE_METHODS
        self.costs = ActionCosts(cost_profile or CostProfile(), self.space) if aware else None
        if self.config.method is Method.WEAVER:
            self.plan_costs = PlanCosts(self.costs, prior or TransitionPrior(self.space))

    def policy_for(self, purpose: str) -> RulePolicy:
        """A pass's policy. Only a budget-aware method's gets the run's cost
        table, so only its draws condition on the remaining budget."""
        return RulePolicy(
            self.seed,
            self.task.id,
            self.space,
            costs=self.costs,
            purpose=purpose,
            streams=self.streams,
        )

    def next_action(
        self,
        policy: RulePolicy | None,
        history: Sequence[HistoryEntry],
        remaining: Decimal,
        carried: FeasibleSet,
    ) -> tuple[Action, Fraction, FeasibleSet]:
        """The step's action, its floor and the feasible set to carry: weaver
        plans the step, every other method samples one action."""
        cfg = self.config
        if cfg.method is not Method.WEAVER:
            return policy.sample(1, history, remaining=remaining)[0], policy.floor(remaining), carried
        outcome = plan_step(
            policy,
            history,
            self.plan_costs,
            remaining,
            carried=carried,
            seed=self.streams.stream(self.seed, self.task.id, "speculate", len(self.history)),
            k=cfg.k,
            n_rollouts=cfg.n_rollouts,
            depth_limit=cfg.depth_limit,
            uniform_h=cfg.uniform_h,
        )
        return outcome.action, outcome.floor, outcome.feasible

    def meter_policy(self, n: int) -> None:
        """Charge one metered record per candidate drawn from the policy."""
        for _ in range(n):
            usage = self.session.policy_usage()
            if self.config.meter_orchestrator_tokens:
                self.ledger.charge(price_cost(usage, self.orch_model, self.config.prices))

    def act(
        self,
        action: Action,
        context: Sequence[HistoryEntry] | None = None,
        draws: int = 0,
        floor: Fraction = Fraction(0),
    ) -> str | None:
        """Meter the step's ``draws`` policy candidates, run ``action`` and log
        its step with ``floor``; return its output, which for a finish is its
        answer.

        A soft failure (``collab.SOFT_FAILURES``) becomes an ``[error]``
        output. Any other exception ends the run: it logs the step with
        everything it charged, sets ``error`` and returns None.
        """
        visible = self.history if context is None else context
        try:
            self.meter_policy(draws)
            if action.id == FINISH:
                output = action.subtask
            else:
                strategy = self.registry.strategy_for(action.id)
                output = self.executor.run(strategy, action.subtask, visible)
        except SOFT_FAILURES as exc:
            output = f"[error] {type(exc).__name__}: {exc}"
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            self.log_step(action, f"[error] {self.error}", floor)
            return None
        self.log_step(action, output, floor)
        return output

    def log_step(self, action: Action, output: str, floor: Fraction = Fraction(0)) -> None:
        """Log one step costing every ledger entry charged since the previous one."""
        charged = self.ledger.since(self.costed)
        self.costed += len(charged)
        cost = sum_records(charged)
        self.history.append(
            HistoryEntry(step=len(self.history), action=action, output=output, cost=cost, floor=floor)
        )

    def force_finish(self, answer: str) -> None:
        """Best-effort final answer on loop exit without a finish action.

        Charged like a policy call only while budget remains; once the run
        has already overshot, the record is free so that total overshoot
        stays bounded by the cost of the last executed action.
        """
        metered = self.config.meter_orchestrator_tokens and self.ledger.remaining() > 0
        self.act(Action(FINISH, answer), draws=1 if metered else 0)

    def result(self, final_answer: str | None) -> RunResult:
        check_history(self.history)
        solved = final_answer is not None and self.error is None and grade(final_answer, self.task.answer)
        return RunResult(
            task_id=self.task.id,
            final_answer=final_answer if self.error is None else None,
            solved=solved,
            total_cost=self.ledger.total(),
            overshoot=self.ledger.total() > self.config.budget,
            steps=len(self.history),
            trajectory=tuple(self.history),
            error=self.error,
        )


class _Diverged(Exception):
    """A replayed run asked for a step its recording does not hold."""


class _Replay(_Run):
    """A run whose steps are read off ``recording``: the trajectory of the
    same task and knobs at a budget at least as large, run by the same
    method or, for react, by ``iter_verify`` (see ``cut_run``).

    It opens no session, draws from no policy and executes nothing: it
    overrides only the step seam. ``next_action`` proposes the recorded
    action at the current step, provided the remaining budget is at least
    that step's floor; ``act`` charges the step's recorded cost as one
    ledger record and logs the recorded step. A free finish (no policy
    draw) needs no recording: its output is its answer. Any other step the
    recording does not hold, or a remaining budget below a recorded step's
    floor, raises ``_Diverged``.
    """

    def __init__(self, task: Task, config: RunConfig, recording: Sequence[HistoryEntry]):
        super().__init__(task, config)
        self.recording = recording

    def policy_for(self, purpose: str) -> None:
        return None

    def next_action(self, policy, history, remaining, carried):
        entry = self._recorded(remaining)
        return entry.action, entry.floor, carried

    def _recorded(self, remaining=None) -> HistoryEntry:
        """The recorded step at the current one, if it is taken at ``remaining``."""
        step = len(self.history)
        if step >= len(self.recording):
            raise _Diverged(f"no recorded step {step}")
        entry = self.recording[step]
        if remaining is not None and remaining < entry.floor:
            raise _Diverged(f"step {step} needs {entry.floor} remaining, has {remaining}")
        return entry

    def act(self, action: Action, context=None, draws: int = 0, floor=Fraction(0)) -> str:
        if action.id == FINISH and draws == 0:
            self.log_step(action, action.subtask)
            return action.subtask
        entry = self._recorded()
        if entry.action != action:
            raise _Diverged(f"step {entry.step} took {entry.action}, not {action}")
        # Its cost is one aggregate record, so the recorded step is the one log_step would log.
        self.ledger.charge(entry.cost)
        self.costed += 1
        self.history.append(entry)
        return entry.output


def _react_loop(run: _Run, policy: RulePolicy | None, base: int = 0) -> str | None:
    """One policy pass; returns the finish payload if one was emitted.

    The pass sees only the steps from ``base`` on, so a best-of-N attempt
    neither samples nor executes on an earlier attempt's evidence. Each
    step is ``run.next_action`` then ``run.act``, which meters the step's
    policy draws (weaver's K candidates, one otherwise) and logs one step,
    so the pass has taken ``len(run.history) - base``.
    """
    cfg = run.config
    draws = cfg.k if cfg.method is Method.WEAVER else 1
    carried = FeasibleSet()
    while len(run.history) - base < cfg.t_max and run.ledger.remaining() > 0:
        local = run.history[base:]
        action, floor, carried = run.next_action(policy, local, run.ledger.remaining(), carried)
        if run.act(action, context=local, draws=draws, floor=floor) is None:
            return None
        if action.id == FINISH:
            return action.subtask
    return None


def _modal_answer(answers: Sequence[str]) -> str:
    """Majority vote over normalized answers; ties go to the earliest."""
    keys = [normalize_answer(raw) for raw in answers]
    best = Counter(keys).most_common(1)[0][0]  # equal counts keep first-seen order
    return answers[keys.index(best)]


def _verify(run: _Run, answer: str) -> str:
    """``iter_verify``'s critique-and-revise rounds while budget allows; returns
    the answer as the last revision left it."""
    critic = Action(ActionId.agent("critic"), f"verify the evidence gathered for case {run.task.id}")
    revise = Action(ActionId.agent("reason"), f"re-derive the conclusion for case {run.task.id}")
    for _ in range(run.config.t_max):
        if run.ledger.remaining() < _step_estimate(run):
            break
        for action in (critic, revise):
            if run.ledger.remaining() <= 0:
                break
            output = run.act(action)
            if output is None:
                return answer
            if action is revise and output.startswith(DONE_MARK):
                answer = parse_final(output) or answer
    return answer


def _step_estimate(run: _Run) -> Decimal:
    """Mean cost of executed steps so far; a coarse one-more-step estimate."""
    positive = [e.cost.dollars for e in run.history if e.cost.dollars > 0]
    if not positive:
        return as_dollars("0.001")
    return as_dollars(sum(positive) / len(positive))


def _run_method(run: _Run) -> RunResult:
    """Run the body of ``run.config.method`` on ``run`` (see the module
    docstring). Each pass draws from its own policy purpose, ``attempt{i}``
    for best-of-N and ``policy`` otherwise, over the one shared ledger."""
    cfg = run.config
    if cfg.method is Method.BEST_OF_N:
        purposes = [f"attempt{i}" for i in range(cfg.n_attempts)]
    else:
        purposes = ["policy"]
    answers = []
    for purpose in purposes:
        if run.ledger.remaining() <= 0 or run.error is not None:
            break
        answer = _react_loop(run, run.policy_for(purpose), base=len(run.history))
        if answer is not None:
            answers.append(answer)
    answer = _modal_answer(answers) if answers else best_effort_answer(run.history)
    if cfg.method is Method.ITER_VERIFY and run.error is None:
        answer = _verify(run, answer)
    if run.error is not None:
        return run.result(None)
    if not answers:
        run.force_finish(answer)
    return run.result(answer)


def cut_run(longer: RunResult, task: Task, config: RunConfig) -> RunResult | None:
    """The run at ``config.budget``, read off ``longer`` with nothing
    executed again. ``longer`` ran the same task and knobs at a budget at
    least as large, under the same method or, when ``config.method`` is
    react, under ``iter_verify``: react at B is the start of ``iter_verify``
    at B, whose plain pass is react's loop with the same policy draws.

    A step reads the budget only through threshold tests, and its floor is
    the largest threshold it found within the remaining budget (0 for a
    budget-blind method), so at a smaller budget that still leaves at least
    the floor the step comes out the same. The method's own body runs over
    a replay of ``longer``'s steps and decides where the smaller budget
    stops it; a react replay stops at react's finish. None, and the caller
    runs the task in full, when ``longer`` ended in an error, a step's
    remaining budget falls below its floor, or the cut run needs a step
    ``longer`` never took: say, a metered forced finish (of ``iter_verify``,
    or of react read off ``iter_verify``) where ``longer`` went on to verify.
    """
    if longer.error is not None:
        return None
    try:
        return _run_method(_Replay(task, config, longer.trajectory))
    except _Diverged:
        return None


def run_task(
    task: Task,
    config: RunConfig,
    registry: ModuleRegistry | None = None,
    cost_profile: CostProfile | None = None,
    backend=None,
    seed: int = 0,
    roster: Mapping[str, WorkerAgent] | None = None,
    prior: TransitionPrior | None = None,
) -> RunResult:
    """Run one task under one method and budget, returning the full record.

    The result comes back however the run ends. A run that fails, at set-up
    (no session, ``MissingCostProfile``) or at any step, has ``error`` naming
    the failure, no final answer, and every dollar it charged in a logged step.
    """
    if backend is None:
        raise ValueError("a backend (synthetic world or wire adapter) is required")
    run = _Run(task, config)
    try:
        run.begin(backend, registry, cost_profile, seed, roster, prior)
        return _run_method(run)
    except Exception as exc:
        run.error = f"{type(exc).__name__}: {exc}"
        return run.result(None)


# -- trajectory log -----------------------------------------------------------


def trajectory_rows(result: RunResult, method: Method, budget: Decimal) -> list[dict]:
    """Stable-order row dicts of the line-delimited trajectory log; its
    lines are these rows' JSON (see ``trajectory_log.TrajectoryLog``)."""
    rows = []
    remaining = as_dollars(budget)
    for entry in result.trajectory:
        remaining -= entry.cost.dollars
        rows.append(
            {
                "task_id": result.task_id,
                "method": method.value,
                "budget": str(as_dollars(budget)),
                "step": entry.step,
                "action_kind": entry.action.id.kind.value,
                "action_name": entry.action.id.name,
                "subtask": entry.action.subtask,
                "output_digest": _digest(entry.output),
                "input_tokens": entry.cost.usage.input_tokens,
                "output_tokens": entry.cost.usage.output_tokens,
                "dollars": str(entry.cost.dollars),
                "remaining_after": str(remaining),
            }
        )
    rows.append(
        {
            "task_id": result.task_id,
            "final_answer": result.final_answer,
            "solved": result.solved,
            "total_cost": str(result.total_cost),
            "overshoot": result.overshoot,
        }
    )
    return rows


def write_trajectory_log(lines: Iterable[str], path: str | Path) -> None:
    """Write rendered log lines (``trajectory_log.TrajectoryLog``) to ``path``, one per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)
