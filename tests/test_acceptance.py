"""The ten-point acceptance gate.

Every test prints a single verdict line (run with -s to see them on
success). The heavyweight trend sweep runs once per session and backs
both the ledger audit and the trend checks.
"""

import time
from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction

import numpy as np
import pytest

from weaver.agents import SyntheticWorld
from weaver.bench import SweepConfig, prepare_seed, run_sweep
from weaver.collab import Ensemble, ModuleRegistry, Pipeline, Single, builtin_catalog
from weaver.core import (
    ActionCosts,
    ActionId,
    CostProfile,
    CostRecord,
    ProfileEntry,
    TokenUsage,
    as_dollars,
    price_cost,
)
from weaver.orchestrator import (
    Method,
    RunConfig,
    action_space,
    default_roster,
    run_task,
    trajectory_rows,
)
from weaver.planner import (
    FeasibleSet,
    PlanCosts,
    SpeculativeTrajectory,
    TransitionPrior,
    filter_feasible,
    long_term_gain,
    plan_step,
    select_action,
    short_term_gain,
)
from weaver.policy import RulePolicy
from weaver.reflection import StoredStep, StoredTrajectory, TrajectoryStore, estimate_costs, mine_modules
from weaver.streams import SeedStream
from weaver.tasks import synthetic_tasks

from test_planner import random_instance


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


GRID_BUDGETS = ("0.05", "0.15", "0.45", "0.90")
GRID_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def trend_sweep(tmp_path_factory):
    tasks = synthetic_tasks(seed=0, num_tasks=230)
    out = tmp_path_factory.mktemp("trend")
    t0 = time.monotonic()
    sweep = run_sweep(
        tasks,
        [Method.MODULES_UNAWARE, Method.WEAVER],
        list(GRID_BUDGETS),
        list(GRID_SEEDS),
        config=SweepConfig(),
        out_dir=out,
    )
    return sweep, time.monotonic() - t0


def test_criterion_01_formula_oracles():
    rng = np.random.default_rng(401)
    start = time.monotonic()
    bad = []
    for trial in range(1000):
        k = trial % 8 + 1
        candidates, buckets, remaining, profile, _ = random_instance(rng, k=k)
        g = short_term_gain(candidates)
        ids = [c.id for c in candidates]
        if g != [Fraction(sum(1 for j in ids if j == ids[i]), k) for i in range(k)]:
            bad.append(f"g mismatch at trial {trial}")
            break
        feasible = FeasibleSet(tuple(tuple(filter_feasible(b, remaining)) for b in buckets))
        h = long_term_gain(feasible.counts())
        bound = Fraction(remaining)
        counts = [
            sum(1 for t in b if sum((profile.mean(a) for a in t.actions), Fraction(0)) <= bound)
            for b in buckets
        ]
        denom = sum(counts)
        want = [Fraction(1, k)] * k if denom == 0 else [Fraction(c, denom) for c in counts]
        if h != want:
            bad.append(f"h mismatch at trial {trial}")
            break
        if abs(float(sum(h)) - 1.0) > 1e-9:
            bad.append(f"h does not sum to 1 at trial {trial}")
            break
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        bad.append(f"too slow: {elapsed:.2f}s")
    verdict(1, not bad, bad[0] if bad else f"g and h match brute force on 1000 instances, K in 1..8, {elapsed:.2f}s < 5s")


def test_criterion_02_pricing_exactness():
    sonnet = price_cost(TokenUsage(1000, 1000), "claude-3-7-sonnet-latest").dollars
    haiku = price_cost(TokenUsage(2000, 500), "claude-3-5-haiku-latest").dollars
    ok = sonnet == Decimal("0.018000") and haiku == Decimal("0.003600")
    verdict(2, ok, f"sonnet (1000,1000) -> ${sonnet}, haiku (2000,500) -> ${haiku}, both exact")


def test_criterion_03_feasibility_properties():
    rng = np.random.default_rng(402)
    start = time.monotonic()
    bad = []
    for trial in range(1000):
        candidates, buckets, remaining, profile, _ = random_instance(rng)
        lo = FeasibleSet(tuple(tuple(filter_feasible(b, remaining)) for b in buckets))
        extra = Decimal(int(rng.integers(0, 80_000))) / Decimal(10**6)
        hi = FeasibleSet(tuple(tuple(filter_feasible(b, remaining + extra)) for b in buckets))
        if not all(set(a) <= set(b) for a, b in zip(lo.per_candidate, hi.per_candidate)):
            bad.append(f"feasible set shrank under budget growth at trial {trial}")
            break
        g = short_term_gain(candidates)
        base_action, _ = select_action(candidates, g, long_term_gain(lo.counts()), profile)
        factor = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        scaled = [
            [SpeculativeTrajectory(t.actions, t.estimated_cost * factor) for t in b]
            for b in buckets
        ]
        fs = FeasibleSet(
            tuple(
                tuple(filter_feasible(b, Fraction(remaining) * factor)) for b in scaled
            )
        )
        if fs.counts() != lo.counts():
            bad.append(f"feasible counts changed under scaling at trial {trial}")
            break
        scaled_action, _ = select_action(
            candidates, g, long_term_gain(fs.counts()), profile.scaled(factor)
        )
        if scaled_action != base_action:
            bad.append(f"selected action changed under scaling at trial {trial}")
            break
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        bad.append(f"too slow: {elapsed:.2f}s")
    verdict(3, not bad, bad[0] if bad else f"monotone and scale-invariant on 1000 states, {elapsed:.2f}s < 10s")


def test_criterion_04_planning_purity():
    tasks = synthetic_tasks(seed=13, num_tasks=5)
    world = SyntheticWorld(tasks, seed=13)
    roster = default_roster()
    registry = ModuleRegistry(roster=list(roster))
    for module in builtin_catalog("gaia"):
        registry.register(module)
    space = action_space(roster, registry.modules())
    profile = CostProfile({aid: ProfileEntry(Fraction(2, 100), 1) for aid in space})
    session = world.session(tasks[0].id)
    table = ActionCosts(profile, space)
    policy = RulePolicy(9, tasks[0].id, space, costs=table)
    workers_before = world.count_invocations()
    draws_before = session._policy_calls
    outcome = plan_step(
        policy,
        [],
        PlanCosts(table, TransitionPrior(space)),
        remaining=Decimal("0.40"),
        seed=SeedStream([9, 0]),
        k=3,
        n_rollouts=12,
        depth_limit=8,
    )
    invoked = world.count_invocations() - workers_before
    drawn = session._policy_calls - draws_before
    ok = invoked == 0 and drawn == 0 and sum(outcome.feasible.counts()) > 0
    verdict(4, ok, f"full plan step: {invoked} worker invocations, {drawn} metered policy draws, speculation non-empty")


def test_criterion_05_ledger_integrity(trend_sweep):
    sweep, _ = trend_sweep
    bad = []
    runs = 0
    exclusion_bites = False
    for cell in sweep.cells.values():
        hits = 0
        for run in cell.results:
            runs += 1
            if run.error is not None:
                bad.append(f"{run.task_id}: {run.error}")
                continue
            step_sum = sum((e.cost.dollars for e in run.trajectory), Decimal(0))
            if run.total_cost != step_sum:
                bad.append(f"{run.task_id}: total {run.total_cost} != step sum {step_sum}")
            if run.overshoot:
                excess = run.total_cost - cell.budget
                billable = [e for e in run.trajectory if e.cost.dollars > 0]
                if not billable or not 0 < excess <= billable[-1].cost.dollars:
                    bad.append(f"{run.task_id}: overshoot {excess} above final action cost")
            if run.solved and run.total_cost <= cell.budget:
                hits += 1
        want = float(
            (Decimal(100 * hits) / Decimal(len(cell.results))).quantize(
                Decimal("0.01"), rounding=ROUND_HALF_EVEN
            )
        )
        if cell.acc != want:
            bad.append(f"cell {cell.method.value}@{cell.budget}: acc {cell.acc} != {want}")
        if cell.acc_lenient > cell.acc:
            exclusion_bites = True
    if not exclusion_bites:
        bad.append("no cell had overshooting solved runs; exclusion untested")
    verdict(5, not bad, bad[0] if bad else f"{runs} runs: exact cost sums, bounded overshoot, strict Acc@B excludes overshooters")


def _cent_step(name, cents):
    return StoredStep(
        action=ActionId.agent(name),
        subtask_digest="0" * 16,
        cost=CostRecord(TokenUsage(100, 50), "aggregate", as_dollars(Decimal(cents) / 100)),
    )


def test_criterion_06_miner_recovery():
    paths = [
        ["search", "browse", "critic", "reason", "reason"],
        ["search", "browse", "reason", "reason", "critic"],
        ["critic", "search", "browse", "reason", "reason"],
        ["search", "browse", "critic", "reason"],
        ["search", "browse"],
        ["reason", "reason"],
    ]
    store = TrajectoryStore()
    for i, names in enumerate(paths):
        store.append(
            StoredTrajectory(f"t{i}", 0, True, tuple(_cent_step(n, 1) for n in names))
        )
    fresh = ModuleRegistry()
    for module in builtin_catalog("browse"):
        fresh.register(module)
    t0 = time.monotonic()
    mined = mine_modules(store, min_support=0.5, max_len=4, registry=fresh)
    elapsed = time.monotonic() - t0
    ok = (
        [m.name for m in mined] == ["mined_pipeline_search_browse", "mined_ensemble2_reason"]
        and mined[0].strategy == Pipeline((Single("search"), Single("browse")))
        and mined[1].strategy == Ensemble(2, Single("reason"), "reason")
        and "0.83" in mined[0].description
        and "0.67" in mined[1].description
        and elapsed < 1.0
    )
    # a catalog that already owns both strategies suppresses them entirely
    owning = ModuleRegistry()
    for module in builtin_catalog("gaia"):
        owning.register(module)
    ok = ok and mine_modules(store, min_support=0.5, max_len=4, registry=owning) == []
    verdict(6, ok, f"pipeline@5/6 and 2-ensemble@4/6 recovered and deduplicated in {elapsed:.3f}s < 1s")


def test_criterion_07_cost_profile_correctness():
    store = TrajectoryStore()
    store.append(
        StoredTrajectory(
            "a", 0, True, (_cent_step("search", 1), _cent_step("search", 2), _cent_step("browse", 2))
        )
    )
    store.append(StoredTrajectory("b", 0, False, (_cent_step("search", 4), _cent_step("reason", 7))))
    profile = estimate_costs(store)
    want = {
        ActionId.agent("search"): Fraction(7, 300),
        ActionId.agent("browse"): Fraction(1, 50),
        ActionId.agent("reason"): Fraction(7, 100),
    }
    got = {aid: e.mean_dollars for aid, e in profile.entries.items()}
    verdict(7, got == want, f"means are exact rationals: search 7/300, browse 1/50, reason 7/100")


def test_criterion_08_determinism(tmp_path):
    tasks = synthetic_tasks(seed=3, num_tasks=60)
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        run_sweep(
            tasks,
            [Method.REACT, Method.WEAVER],
            ["0.10", "0.30"],
            [5],
            config=SweepConfig(selfplay_rounds=2),
            out_dir=out,
        )
        blobs.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    same = blobs[0] == blobs[1]
    verdict(8, same and len(blobs[0]) > 4, f"two identical sweeps: {len(blobs[0])} files byte-identical")


def test_criterion_09_trend_reproduction(trend_sweep):
    sweep, elapsed = trend_sweep
    top_two = sweep.budgets[-2:]
    largest = sweep.budgets[-1]
    bad = []

    dominated = all(
        sweep.cell(Method.WEAVER, b, s).acc >= sweep.cell(Method.MODULES_UNAWARE, b, s).acc
        for s in GRID_SEEDS
        for b in top_two
    )
    if not dominated:
        bad.append("budget-aware planning lost to unaware modules at an ample budget")
    strict_seeds = sum(
        1
        for s in GRID_SEEDS
        if any(
            sweep.cell(Method.WEAVER, b, s).acc > sweep.cell(Method.MODULES_UNAWARE, b, s).acc
            for b in top_two
        )
    )
    if strict_seeds < 2:
        bad.append(f"strictly better on only {strict_seeds} of 3 seeds")

    util_w = sum(sweep.cell(Method.WEAVER, largest, s).utilization for s in GRID_SEEDS) / 3
    util_u = sum(
        sweep.cell(Method.MODULES_UNAWARE, largest, s).utilization for s in GRID_SEEDS
    ) / 3
    if not util_w > util_u:
        bad.append(f"utilization {util_w:.4f} <= {util_u:.4f} at the largest budget")

    for s in GRID_SEEDS:
        accs = [sweep.cell(Method.WEAVER, b, s).acc for b in sweep.budgets]
        if any(a > b for a, b in zip(accs, accs[1:])):
            bad.append(f"seed {s} accuracy not monotone in budget: {accs}")

    if elapsed >= 600:
        bad.append(f"sweep took {elapsed:.0f}s")
    verdict(
        9,
        not bad,
        bad[0]
        if bad
        else (
            f"200 scored tasks, 4 budgets, 3 seeds in {elapsed:.0f}s < 600s; "
            f"dominant at top budgets (strict on {strict_seeds}/3 seeds), "
            f"utilization {util_w:.4f} > {util_u:.4f}, accuracy monotone per seed"
        ),
    )


def test_criterion_10_degenerate_method_equivalence():
    tasks = synthetic_tasks(seed=0, num_tasks=50)
    artifacts, scored = prepare_seed(tasks, 7, SweepConfig(), need_selfplay=True)
    roster = default_roster()

    def rows_for(method, **extra):
        cfg = RunConfig(method=method, budget=Decimal("0.30"), **extra)
        rows = []
        for task in scored[:20]:
            result = run_task(
                task,
                cfg,
                registry=artifacts.registry,
                cost_profile=artifacts.profile,
                backend=artifacts.world,
                seed=7,
                roster=roster,
                prior=artifacts.prior,
            )
            for row in trajectory_rows(result, method, cfg.budget):
                row.pop("method", None)
                rows.append(row)
        return rows

    degenerate = rows_for(Method.WEAVER, k=1, uniform_h=True)
    prompt = rows_for(Method.MODULES_PROMPT)
    ok = degenerate == prompt and len(degenerate) > 20
    verdict(10, ok, f"K=1 uniform-h planning matches the prompt-only method on {len(degenerate)} rows over 20 tasks")
