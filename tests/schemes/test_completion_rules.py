"""Completion rules: a plan's stopping rule as a frozen value.

``CompletionRule.can_ever_complete`` — the base class's scan, which feeds
every worker to a fresh aggregator — is the reference each built-in rule's
own answer must reproduce.
"""

import numpy as np
import pytest

from repro.coding.cyclic_repetition import CyclicRepetitionCode
from repro.coding.linear_code import LinearGradientCode
from repro.exceptions import ConfigurationError, CoverageError
from repro.schemes.approximate import IgnoreStragglersScheme
from repro.schemes.base import (
    CodedRule,
    CompletionRule,
    CountAggregator,
    CountRule,
    CoverageRule,
    CustomRule,
    ExecutionPlan,
)
from repro.schemes.bcc import BCCScheme
from repro.schemes.heterogeneous import LoadBalancedScheme
from repro.schemes.uncoded import UncodedScheme


def scanned(plan):
    """The aggregator scan's verdict for ``plan``."""
    return CompletionRule.can_ever_complete(plan.completion, plan)


def recording(code):
    """The worker lists of each ``code.is_decodable`` call, in order."""
    calls = []
    check = code.is_decodable

    def spy(workers):
        calls.append(list(workers))
        return check(workers)

    code.is_decodable = spy
    return calls


def coded_plan(code, check_every=1):
    return ExecutionPlan(
        scheme_name="coded",
        num_units=code.num_partitions,
        unit_assignment=code.to_assignment(),
        message_sizes=np.ones(code.num_workers),
        completion=CodedRule(code, check_every),
    )


class TestCanEverComplete:
    def test_a_bcc_draw_that_misses_a_batch(self):
        # Four batches for four workers: most draws miss one.
        verdicts = set()
        for seed in range(100):
            plan = BCCScheme(load=5).build_plan(20, 4, rng=seed)
            verdict = plan.can_ever_complete()
            assert verdict == scanned(plan) == plan.unit_assignment.is_complete()
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "required, expected",
        [(range(6), True), ([1, 3], True), ([0, 6], False), ([-1, 2], False)],
        ids=["all", "some", "past-the-last", "negative"],
    )
    def test_a_count_rule_needs_every_required_worker(self, required, expected):
        base = UncodedScheme().build_plan(12, 6)
        plan = ExecutionPlan(
            scheme_name="count",
            num_units=12,
            unit_assignment=base.unit_assignment,
            message_sizes=base.message_sizes,
            completion=CountRule(required),
        )
        assert plan.can_ever_complete() is expected
        assert scanned(plan) is expected

    @pytest.mark.parametrize(
        "loads, expected", [([3] * 4 + [0] * 4, False), ([2] * 6 + [0] * 2, True)]
    )
    def test_ignore_stragglers_needs_enough_workers_holding_data(self, loads, expected):
        # It waits for 6 of 8 workers, counting only those holding data.
        rule = IgnoreStragglersScheme(wait_fraction=0.75).build_plan(12, 8).completion
        base = LoadBalancedScheme(loads=loads).build_plan(12, 8)
        plan = ExecutionPlan(
            scheme_name="ignore-stragglers",
            num_units=12,
            unit_assignment=base.unit_assignment,
            message_sizes=np.ones(8),
            completion=rule,
        )
        assert plan.can_ever_complete() is expected
        assert scanned(plan) is expected

    @pytest.mark.parametrize("check_every", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["cyclic", "overstated", "zero-column"])
    def test_a_coded_rule_makes_the_scans_decodability_calls(self, check_every, kind):
        code = CyclicRepetitionCode(12, 3, seed=0)
        if kind != "cyclic":
            matrix = code.encoding_matrix
            if kind == "zero-column":
                # The all-ones row is never in the span: no prefix decodes.
                matrix = np.hstack([matrix[:, :-1], np.zeros((12, 1))])
            code = LinearGradientCode(matrix)
            code.num_stragglers = 5  # more than it tolerates: checks start early
        plan = coded_plan(code, check_every)
        calls = recording(code)
        feasible = plan.can_ever_complete()
        ruled = list(calls)
        calls.clear()
        assert feasible is scanned(plan) is (kind != "zero-column")
        assert ruled == calls != []
        if kind == "cyclic":
            assert len(calls) == 1  # any n - s workers decode: the first checkpoint


class TestRules:
    def test_a_count_rule_refuses_an_empty_worker_set(self):
        with pytest.raises(CoverageError):
            CountRule([])

    def test_a_custom_rule_encodes_by_sum_or_identity(self):
        assert CustomRule(lambda: CountAggregator([0]), "identity").encoding == "identity"
        with pytest.raises(ConfigurationError, match="'sum' or 'identity'"):
            CustomRule(lambda: CountAggregator([0]), "linear")

    def test_a_coverage_rules_encoding_follows_its_messages(self):
        assert CoverageRule(4).encoding == "identity"
        assert CoverageRule(2, worker_items=np.array([0, 1, 1])).encoding == "sum"

    def test_the_checkpoint_cadence(self):
        # n = 12, s = 3: first at 9 arrivals, then every 2, and at the last.
        rule = CodedRule(CyclicRepetitionCode(12, 3, seed=0), check_every=2)
        assert rule.minimum_needed == 9
        assert [count for count in range(1, 13) if rule.is_checkpoint(count)] == [9, 11, 12]
        assert CodedRule(rule.code, check_every=0).check_every == 1
