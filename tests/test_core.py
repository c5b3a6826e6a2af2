"""Money arithmetic, action ids, ledger, and cost profile behavior."""

import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weaver.config import price_sheet
from weaver.core import (
    ActionId,
    ActionKind,
    Action,
    CostLedger,
    CostProfile,
    CostRecord,
    DEFAULT_PRICES,
    FINISH,
    HistoryEntry,
    PriceSheet,
    ProfileEntry,
    TokenUsage,
    UnknownModel,
    as_dollars,
    check_history,
    price_cost,
    sum_records,
)


class TestAsDollars:
    def test_six_fractional_digits(self):
        assert str(as_dollars("0.1")) == "0.100000"

    def test_float_via_str_not_binary(self):
        assert as_dollars(0.2) == Decimal("0.200000")

    def test_bankers_rounding_at_half_micro(self):
        assert as_dollars(Decimal("0.0000005")) == Decimal("0.000000")
        assert as_dollars(Decimal("0.0000015")) == Decimal("0.000002")

    def test_fraction_input(self):
        assert as_dollars(Fraction(1, 3)) == Decimal("0.333333")


class TestActionId:
    def test_str_parse_roundtrip(self):
        for aid in [ActionId.agent("search"), ActionId.module("team"), ActionId.finish()]:
            assert ActionId.parse(str(aid)) == aid

    def test_finish_name_is_fixed(self):
        with pytest.raises(ValueError):
            ActionId(ActionKind.FINISH, "stop")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ActionId.agent("")

    def test_finish_constant(self):
        assert FINISH.kind is ActionKind.FINISH
        assert str(FINISH) == "finish"


class TestPricing:
    def test_known_sonnet_price_point(self):
        rec = price_cost(TokenUsage(1000, 1000), "claude-3-7-sonnet-latest")
        assert rec.dollars == Decimal("0.018000")

    def test_known_haiku_price_point(self):
        rec = price_cost(TokenUsage(2000, 500), "claude-3-5-haiku-latest")
        assert rec.dollars == Decimal("0.003600")

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            price_cost(TokenUsage(1, 1), "gpt-nonexistent")

    def test_custom_sheet(self):
        sheet = PriceSheet({"m": ("1.0", "2.0")})
        rec = price_cost(TokenUsage(500, 250), "m", sheet)
        assert rec.dollars == Decimal("1.000000")

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            PriceSheet({"m": ("-1", "0")})

    @pytest.mark.parametrize("price", ["Infinity", "NaN", "-Infinity"])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ValueError):
            PriceSheet({"m": (price, "0")})


def reference_price(usage, price):
    """The textbook formula: both token counts at the per-1K prices, over 1000, quantized."""
    dollars = Decimal(usage.input_tokens) * price.input_per_1k + Decimal(usage.output_tokens) * price.output_per_1k
    return as_dollars(dollars / Decimal(1000))


TOKENS = st.integers(0, 10**9)
# A price of 25 significant digits, from 1e-7 to 1e4 dollars per 1K tokens.
PRICE_25 = st.builds(lambda digits, exp: f"{digits}E{exp}", st.integers(10**24, 10**25 - 1), st.integers(-31, -21))


class TestPricingExactness:
    """The sheet's per-token rates give the Decimal formula's dollars exactly."""

    @given(st.sampled_from(DEFAULT_PRICES.models()), TOKENS, TOKENS)
    def test_default_models(self, model, tokens_in, tokens_out):
        usage = TokenUsage(tokens_in, tokens_out)
        record = price_cost(usage, model)
        assert record.dollars == reference_price(usage, DEFAULT_PRICES.get(model))
        assert str(record.dollars) == str(reference_price(usage, DEFAULT_PRICES.get(model)))
        assert (record.usage, record.model) == (usage, model)

    @given(PRICE_25, PRICE_25, TOKENS, TOKENS)
    def test_config_sheet_with_25_digit_prices(self, price_in, price_out, tokens_in, tokens_out):
        sheet = price_sheet({"prices": {"m": {"input_per_1k": price_in, "output_per_1k": price_out}}})
        assert sheet.get("m").input_per_1k == Decimal(price_in)
        usage = TokenUsage(tokens_in, tokens_out)
        assert price_cost(usage, "m", sheet).dollars == reference_price(usage, sheet.get("m"))

    @given(st.lists(st.tuples(TOKENS, TOKENS, st.integers(0, 10**12)), max_size=8))
    def test_sum_records_is_the_componentwise_sum(self, rows):
        records = [CostRecord(TokenUsage(i, o), "m", Decimal(micros).scaleb(-6)) for i, o, micros in rows]
        total = sum_records(records)
        assert total.usage == TokenUsage(sum(r[0] for r in rows), sum(r[1] for r in rows))
        assert total.dollars == as_dollars(sum((r.dollars for r in records), Decimal(0)))
        assert total.model == "aggregate"

    def test_unknown_model_on_a_loaded_sheet(self):
        sheet = price_sheet({"prices": {"m": {"input_per_1k": "0.001", "output_per_1k": "0.002"}}})
        with pytest.raises(UnknownModel):
            price_cost(TokenUsage(1, 1), "claude-3-7-sonnet-latest", sheet)
        with pytest.raises(UnknownModel):
            sheet.per_token("gpt-nonexistent")


class TestRecords:
    def test_sum_records_empty_is_zero(self):
        rec = sum_records([])
        assert rec.dollars == Decimal("0.000000")
        assert rec.usage == TokenUsage(0, 0)

    def test_sum_records_adds_components(self):
        a = price_cost(TokenUsage(1000, 0), "claude-3-7-sonnet-latest")
        b = price_cost(TokenUsage(0, 1000), "claude-3-7-sonnet-latest")
        total = sum_records([a, b])
        assert total.dollars == Decimal("0.018000")
        assert total.usage == TokenUsage(1000, 1000)

    def test_negative_dollars_rejected(self):
        with pytest.raises(ValueError):
            CostRecord(TokenUsage(), "m", Decimal("-0.01"))


class TestLedger:
    def test_remaining_and_overshoot(self):
        ledger = CostLedger("0.01")
        assert ledger.remaining() == Decimal("0.010000")
        ledger.charge(CostRecord(TokenUsage(), "m", Decimal("0.004")))
        assert ledger.remaining() == Decimal("0.006000")
        assert not ledger.overshoot
        ledger.charge(CostRecord(TokenUsage(), "m", Decimal("0.007")))
        assert ledger.overshoot
        assert ledger.remaining() == Decimal("-0.001000")

    def test_total_equals_sum_of_entries(self):
        ledger = CostLedger(1)
        for i in range(10):
            ledger.charge(CostRecord(TokenUsage(), "m", as_dollars(i) / 100))
        assert ledger.total() == sum(r.dollars for r in ledger.entries)

    def test_since_returns_the_entries_after_a_count(self):
        ledger = CostLedger(1)
        records = [CostRecord(TokenUsage(i, 0), "m", Decimal(i)) for i in range(5)]
        for record in records:
            ledger.charge(record)
        assert ledger.since(0) == records
        assert ledger.since(3) == records[3:]
        assert ledger.since(5) == []

    def test_concurrent_charges_all_land(self):
        ledger = CostLedger(100)
        record = CostRecord(TokenUsage(), "m", Decimal("0.000001"))

        def worker():
            for _ in range(500):
                ledger.charge(record)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.total() == Decimal("0.004000")
        assert len(ledger.entries) == 4000


class TestHistory:
    def test_contiguous_ok(self):
        zero = sum_records([])
        entries = [
            HistoryEntry(i, Action(ActionId.agent("search"), "q"), "out", zero)
            for i in range(3)
        ]
        check_history(entries)

    def test_gap_rejected(self):
        zero = sum_records([])
        entries = [HistoryEntry(1, Action(FINISH, "x"), "x", zero)]
        with pytest.raises(ValueError):
            check_history(entries)


class TestCostProfile:
    def _profile(self):
        return CostProfile(
            {
                ActionId.agent("search"): ProfileEntry(Fraction(3, 1000), 5),
                ActionId.agent("reason"): ProfileEntry(Fraction(17, 1000), 5),
            }
        )

    def test_mean_and_covers(self):
        p = self._profile()
        assert p.mean(ActionId.agent("search")) == Fraction(3, 1000)
        assert ActionId.agent("search") in p and ActionId.agent("reason") in p
        assert ActionId.agent("browse") not in p

    def test_scaled_multiplies_means_exactly(self):
        p = self._profile().scaled(Fraction(7, 2))
        assert p.mean(ActionId.agent("search")) == Fraction(21, 2000)

    def test_json_rows_hold_the_mean_and_the_count(self):
        rows = self._profile().to_json()
        assert rows["agent:search"] == {
            "mean_num": 3, "mean_den": 1000, "mean_dollars": "0.003000", "sample_count": 5
        }
        assert all(set(row) == {"mean_num", "mean_den", "mean_dollars", "sample_count"} for row in rows.values())

    def test_a_row_with_an_old_stddev_still_loads(self):
        row = {"mean_num": 3, "mean_den": 1000, "mean_dollars": "0.003000", "sample_count": 5}
        p = CostProfile.from_json({"agent:search": {**row, "sample_stddev": 0.001}})
        assert p.mean(ActionId.agent("search")) == Fraction(3, 1000)
        assert p.entries[ActionId.agent("search")].sample_count == 5

    @pytest.mark.parametrize(
        "bad",
        [
            {"mean_num": 1.5, "mean_den": 2.9},
            {"mean_num": 3.0},
            {"mean_den": "1000"},
            {"sample_count": True},
            {"sample_count": 5.0},
            {"mean_num": -3},
            {"mean_den": 0},
            {"mean_den": -1000},
            {"sample_count": -1},
        ],
        ids=repr,
    )
    def test_a_bad_row_is_refused(self, bad):
        row = {"mean_num": 3, "mean_den": 1000, "mean_dollars": "0.003000", "sample_count": 5, **bad}
        with pytest.raises(ValueError, match="profile row 'agent:search'"):
            CostProfile.from_json({"agent:search": row})

    def test_json_roundtrip_preserves_exact_means(self):
        p = self._profile()
        again = CostProfile.from_json(p.to_json())
        for aid in p.ids():
            assert again.mean(aid) == p.mean(aid)
            assert again.entries[aid].sample_count == p.entries[aid].sample_count
