"""Shared domain types: actions, history, token usage, and exact-decimal costing.

Dollar amounts are fixed-point decimals with 6 fractional digits so that
budget comparisons are bit-exact across platforms. All ledger arithmetic is
done on ``decimal.Decimal``; floats never enter the money path.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

MICRO = Decimal("0.000001")
FINISH_NAME = "finish"


class UnknownModel(KeyError):
    """Raised when a model name is missing from the price sheet."""


def as_dollars(value) -> Decimal:
    """Coerce a numeric value to a 6-fractional-digit Decimal.

    Floats are converted through ``str`` so that e.g. 0.2 becomes exactly
    0.200000 rather than the nearest binary float.
    """
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(str(value))
    return dec.quantize(MICRO, rounding=ROUND_HALF_EVEN)


def positive_budget(value) -> Decimal:
    """``value`` as a quantized dollar amount; ValueError unless it is a positive one."""
    try:
        budget = as_dollars(value)
        positive = budget > 0
    except ArithmeticError:  # malformed, NaN or infinite
        positive = False
    if not positive:
        raise ValueError(f"budget {value!r} is not a positive dollar amount")
    return budget


class ActionKind(Enum):
    AGENT = "agent"
    MODULE = "module"
    FINISH = "finish"


@dataclass(frozen=True, order=True)
class ActionId:
    """Identifier for one entry of the expanded action space (agents, modules, finish)."""

    kind: ActionKind
    name: str

    def __post_init__(self):
        if self.kind is ActionKind.FINISH and self.name != FINISH_NAME:
            raise ValueError("finish actions must be named %r" % FINISH_NAME)
        if not self.name:
            raise ValueError("action name must be non-empty")
        # Ids key every dict and set on the plan path, so the generated
        # hash((kind, name)) is computed once.
        object.__setattr__(self, "_hash", hash((self.kind, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild on unpickling: a str hash differs between processes.
        return ActionId, (self.kind, self.name)

    def __str__(self) -> str:
        if self.kind is ActionKind.FINISH:
            return FINISH_NAME
        return f"{self.kind.value}:{self.name}"

    @staticmethod
    def agent(name: str) -> "ActionId":
        return ActionId(ActionKind.AGENT, name)

    @staticmethod
    def module(name: str) -> "ActionId":
        return ActionId(ActionKind.MODULE, name)

    @staticmethod
    def finish() -> "ActionId":
        return ActionId(ActionKind.FINISH, FINISH_NAME)

    @staticmethod
    def parse(text: str) -> "ActionId":
        if text == FINISH_NAME:
            return ActionId.finish()
        kind, _, name = text.partition(":")
        return ActionId(ActionKind(kind), name)


FINISH = ActionId.finish()


@dataclass(frozen=True)
class Action:
    """One orchestration choice: an action id plus the subtask handed to it.

    For finish actions the subtask carries the final answer payload.
    """

    id: ActionId
    subtask: str

    def __post_init__(self):
        if not self.subtask:
            raise ValueError("subtask must be non-empty")


@dataclass(frozen=True)
class TokenUsage:
    input_tokens: int = 0
    output_tokens: int = 0

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be non-negative")


@dataclass(frozen=True)
class ModelPrice:
    input_per_1k: Decimal
    output_per_1k: Decimal

    def __post_init__(self):
        for price in (self.input_per_1k, self.output_per_1k):
            if not price.is_finite() or price < 0:
                raise ValueError("prices must be finite and non-negative")


def _per_token(per_1k: Decimal) -> Decimal:
    """``per_1k / 1000`` exactly: the same digits, the exponent less 3.

    Shifting the exponent commutes with rounding to the context's
    significant digits, so ``tokens * per_token`` rounds to the digits of
    ``tokens * per_1k``, a thousandth of it.
    """
    sign, digits, exponent = per_1k.as_tuple()
    return Decimal((sign, digits, exponent - 3))


class PriceSheet:
    """Per-model token prices in dollars per 1K tokens.

    Each model's per-token rates are computed once, when the sheet is built.
    """

    def __init__(self, prices: Mapping[str, tuple] | Mapping[str, ModelPrice]):
        self._prices: dict[str, ModelPrice] = {}
        for model, price in prices.items():
            if isinstance(price, ModelPrice):
                self._prices[model] = price
            else:
                inp, out = price
                self._prices[model] = ModelPrice(
                    Decimal(str(inp)), Decimal(str(out))
                )
        self._rates = {
            model: (_per_token(p.input_per_1k), _per_token(p.output_per_1k))
            for model, p in self._prices.items()
        }

    def __contains__(self, model: str) -> bool:
        return model in self._prices

    def models(self) -> list[str]:
        return sorted(self._prices)

    def get(self, model: str) -> ModelPrice:
        try:
            return self._prices[model]
        except KeyError:
            raise UnknownModel(model) from None

    def per_token(self, model: str) -> tuple[Decimal, Decimal]:
        """The model's (input, output) dollars per token."""
        try:
            return self._rates[model]
        except KeyError:
            raise UnknownModel(model) from None


# AWS Bedrock prices used for all built-in costing, dollars per 1K tokens.
DEFAULT_PRICES = PriceSheet(
    {
        "claude-3-5-haiku-latest": ("0.0008", "0.004"),
        "claude-3-7-sonnet-latest": ("0.003", "0.015"),
        "qwen3-32b": ("0.0007", "0.0028"),
    }
)

AGGREGATE_MODEL = "aggregate"  # synthesized sum records; not priceable


@dataclass(frozen=True)
class CostRecord:
    usage: TokenUsage
    model: str
    dollars: Decimal

    def __post_init__(self):
        if self.dollars < 0:
            raise ValueError("dollars must be non-negative")


def price_cost(usage: TokenUsage, model: str, sheet: PriceSheet = DEFAULT_PRICES) -> CostRecord:
    """Price a token usage against the sheet, exact to 6 decimal digits.

    The dollars are ``(tokens_in * input_per_1k + tokens_out * output_per_1k)
    / 1000``, quantized once; the sheet's per-token rates give the same
    Decimal without the division.
    """
    rate_in, rate_out = sheet.per_token(model)
    dollars = Decimal(usage.input_tokens) * rate_in + Decimal(usage.output_tokens) * rate_out
    return CostRecord(usage=usage, model=model, dollars=dollars.quantize(MICRO, rounding=ROUND_HALF_EVEN))


def sum_records(records: Iterable[CostRecord]) -> CostRecord:
    """Component-wise sum of records, attributed to the synthetic 'aggregate' model."""
    tokens_in = tokens_out = 0
    dollars = Decimal(0)
    for rec in records:
        tokens_in += rec.usage.input_tokens
        tokens_out += rec.usage.output_tokens
        dollars += rec.dollars
    usage = TokenUsage(tokens_in, tokens_out)
    return CostRecord(usage=usage, model=AGGREGATE_MODEL, dollars=as_dollars(dollars))


class CostLedger:
    """Append-only record of executed costs against a fixed budget.

    A run charges from one thread: ``ModuleExecutor.run`` charges a module's
    calls, parallel branches included, on the thread that called it. The lock
    keeps charges and totals linearizable should a caller share a ledger.
    """

    def __init__(self, budget) -> None:
        self.budget = as_dollars(budget)
        self._entries: list[CostRecord] = []
        self._total = Decimal("0.000000")
        self._lock = threading.Lock()

    def charge(self, record: CostRecord) -> None:
        with self._lock:
            self._entries.append(record)
            self._total += record.dollars

    @property
    def entries(self) -> tuple[CostRecord, ...]:
        with self._lock:
            return tuple(self._entries)

    def since(self, start: int) -> list[CostRecord]:
        """The entries charged after the first ``start``."""
        with self._lock:
            return self._entries[start:]

    def total(self) -> Decimal:
        with self._lock:
            return self._total

    def remaining(self) -> Decimal:
        with self._lock:
            return self.budget - self._total

    @property
    def overshoot(self) -> bool:
        return self.total() > self.budget


@dataclass(frozen=True)
class HistoryEntry:
    """One executed step: the action taken, its output, and its total cost.

    ``floor`` is the largest cost threshold the step compared with the
    remaining budget and found at or below it (a mean in the run's
    ``ActionCosts`` table, which the policy's damping test reads, or a
    rollout's estimate in the planner's feasibility filter), or 0 if there
    was none. At any remaining budget
    from ``floor`` up to the one the step saw, every such comparison comes
    out the same, so the step takes the same action. A budget-blind step's
    floor is 0. The trajectory log does not write it.
    """

    step: int
    action: Action
    output: str
    cost: CostRecord
    floor: Fraction = Fraction(0)

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("step must be >= 0")


def check_history(history: Iterable[HistoryEntry]) -> None:
    """Assert step indices are contiguous from 0."""
    for expected, entry in enumerate(history):
        if entry.step != expected:
            raise ValueError(f"history steps not contiguous at index {expected}")


@dataclass
class ProfileEntry:
    """Average observed cost for one action id: the exact rational mean of
    ``sample_count`` logged costs."""

    mean_dollars: Fraction
    sample_count: int


@dataclass
class CostProfile:
    """Learned map from action id to average execution cost.

    Means are exact rationals over the logged 6-digit decimal costs; the
    estimate is treated as transferable across tasks, which is a modeling
    relaxation rather than a guarantee.
    """

    entries: dict[ActionId, ProfileEntry] = field(default_factory=dict)

    def __contains__(self, action_id: ActionId) -> bool:
        return action_id in self.entries

    def mean(self, action_id: ActionId) -> Fraction:
        return self.entries[action_id].mean_dollars

    def ids(self) -> list[ActionId]:
        return sorted(self.entries, key=str)

    def scaled(self, factor: Fraction) -> "CostProfile":
        return CostProfile(
            {
                a: ProfileEntry(e.mean_dollars * factor, e.sample_count)
                for a, e in self.entries.items()
            }
        )

    def to_json(self) -> dict:
        out = {}
        for action_id in self.ids():
            e = self.entries[action_id]
            out[str(action_id)] = {
                "mean_num": e.mean_dollars.numerator,
                "mean_den": e.mean_dollars.denominator,
                "mean_dollars": str(as_dollars(e.mean_dollars)),
                "sample_count": e.sample_count,
            }
        return out

    @staticmethod
    def from_json(data: Mapping[str, Mapping]) -> "CostProfile":
        if not isinstance(data, Mapping):
            raise TypeError(f"a profile is a mapping, got {type(data).__name__}")
        entries = {}
        for key, row in data.items():
            num, den, count = row["mean_num"], row["mean_den"], row["sample_count"]
            # bool is an int subclass; a JSON true is not a count.
            if any(type(v) is not int for v in (num, den, count)) or den <= 0 or num < 0 or count < 0:
                raise ValueError(
                    f"profile row {key!r} needs ints mean_num >= 0, mean_den > 0 and "
                    f"sample_count >= 0, got {num!r}, {den!r} and {count!r}"
                )
            entries[ActionId.parse(key)] = ProfileEntry(mean_dollars=Fraction(num, den), sample_count=count)
        return CostProfile(entries)


class ActionCosts:
    """A cost profile's means over an action space, read by budget tests.

    ``units`` maps each action of ``space`` that the profile prices to its
    mean as a whole number of units of ``1 / denominator``, the least
    common denominator of those means. ``cap(remaining)`` is the remaining
    budget in whole units, rounded down, so a mean exceeds ``remaining``
    exactly when its units exceed the cap: every comparison of a mean with
    the budget is that int compare. An action the profile does not price
    has no units and is never over the cap. Build one per run, over the
    space it acts in; every pass and the planner share it. Its prices never
    change. ``remaining`` is a Decimal, Fraction or int.
    """

    def __init__(self, profile: CostProfile, space: Sequence[ActionId]):
        entries = profile.entries
        means = {aid: entries[aid].mean_dollars for aid in dict.fromkeys(space) if aid in entries}
        self.denominator = math.lcm(*(m.denominator for m in means.values()))
        self.units = {aid: m.numerator * (self.denominator // m.denominator) for aid, m in means.items()}
        self._levels = sorted(set(self.units.values()))  # the distinct means, ascending

    def cap(self, remaining) -> int:
        """``remaining`` in whole units, rounded down."""
        num, den = remaining.as_integer_ratio()
        return num * self.denominator // den

    def floor(self, remaining) -> Fraction:
        """The largest priced mean at or below ``remaining``; 0 if none is.

        At any remaining budget from it up to ``remaining``, the same
        actions are over the cap.
        """
        fits = bisect_right(self._levels, self.cap(remaining))
        return Fraction(self._levels[fits - 1] if fits else 0, self.denominator)
