"""One planning step, opened up.

Each loop iteration the orchestrator samples K candidate actions, scores
them two ways, and argmaxes the blend:

  g  agreement: the share of the K candidates proposing the same action
  h  budget feasibility: each candidate's share of speculative rollouts
     (symbolic futures priced from the cost profile) that fit the
     remaining budget

Nothing here touches a worker: rollouts walk a learned transition prior
over action ids. Surviving rollouts carry into the next step to bias
sampling toward actions that kept showing up in feasible futures.
"""

from decimal import Decimal
from fractions import Fraction

from weaver.collab import ModuleRegistry, builtin_catalog
from weaver.core import ActionCosts, ActionId, CostProfile, FINISH, ProfileEntry
from weaver.orchestrator import action_space, default_roster
from weaver.planner import PlanCosts, TransitionPrior, plan_step
from weaver.policy import RulePolicy
from weaver.streams import SeedStream

roster = default_roster()
registry = ModuleRegistry(roster=list(roster))
for module in builtin_catalog("gaia"):
    registry.register(module)
space = action_space(roster, registry.modules())

# A hand-written cost profile: cheap agents, one ruinously expensive module.
costly = ActionId.module("three_ensemble_reasoning")
profile = CostProfile(
    {
        aid: ProfileEntry(Fraction(2) if aid == costly else Fraction(3, 1000), 3)
        for aid in space
    }
)

# A prior that has seen search -> browse -> reason -> finish a few times.
walk = [ActionId.agent("search"), ActionId.agent("browse"), ActionId.agent("reason"), FINISH]
prior = TransitionPrior.from_sequences([tuple(walk)] * 5, space)

# The run's one priced view of its actions: each mean an integer over one
# common denominator. The policy's damping test reads it (an action whose
# mean exceeds the remaining budget is damped), and so does the planner:
# PlanCosts prices the prior's vocabulary from the same table, and raises
# MissingCostProfile if the table leaves any of it unpriced.
table = ActionCosts(profile, space)
costs = PlanCosts(table, prior)
print(f"== plan costs: means in units of 1/{costs.denominator} dollar ==")
for aid in (ActionId.agent("search"), costly):
    print(f"  {str(aid):34s} {costs.units_of(aid)} units")

policy = RulePolicy(seed=3, task_id="case-x", action_space=space, costs=table)

print("\n== a plan step under a 4-cent remaining budget ==")
outcome = plan_step(
    policy,
    [],
    costs,
    remaining=Decimal("0.04"),
    seed=SeedStream([3, 0]),
    k=4,
    n_rollouts=8,
    depth_limit=5,
)
for i, candidate in enumerate(outcome.candidates):
    print(
        f"  candidate {i}: {str(candidate.id):34s} "
        f"g={outcome.g[i]!s:5s} h={outcome.h[i]!s:6s} f={float(outcome.f[i]):.3f}"
    )
print(f"  chosen: {outcome.action.id}")
print(f"  feasible rollouts per candidate: {outcome.feasible.counts()}")

print("\n== carried frequencies bias the next sample ==")
freq = outcome.feasible.action_frequencies()
for aid, share in sorted(freq.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  {str(aid):34s} appeared in {float(share):.2f} of surviving futures")

# Exact arithmetic end to end: g, h, f are Fractions, so ties and
# boundary cases never depend on float luck.
print("\n== exactness ==")
print(f"  sum(h) == 1: {sum(outcome.h) == Fraction(1)}")
print(f"  types: g {type(outcome.g[0]).__name__}, h {type(outcome.h[0]).__name__}")

print("\n== the K=1 degenerate case ==")
flat = plan_step(
    policy,
    [],
    costs,
    remaining=Decimal("0.04"),
    seed=SeedStream([3, 1]),
    k=1,
    n_rollouts=8,
    depth_limit=5,
    uniform_h=True,
)
print(f"  with K=1 and uniform h the planner just takes the policy's pick: {flat.action.id}")
print(f"  g={flat.g} h={flat.h} feasible={flat.feasible.counts()}")
