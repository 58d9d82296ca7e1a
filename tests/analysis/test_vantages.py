"""Tests for multi-vantage marginal-gain analysis."""

from repro.analysis.vantages import (
    best_order,
    interfaces_by_vantage,
    overlap_matrix,
)
from repro.prober.campaign import CampaignResult


def campaign(vantage, interfaces):
    return CampaignResult(
        name=vantage,
        vantage=vantage,
        prober="yarrp6",
        pps=1,
        targets=0,
        sent=0,
        records=[],
        interfaces=set(interfaces),
        curve=[],
        response_labels={},
        summary={},
        duration_us=0,
    )


class TestBestOrder:
    def test_greedy(self):
        rows = best_order({"small": {1}, "big": {1, 2, 3}, "mid": {3, 4}})
        assert rows[0][0] == "big"
        assert rows[0][1] == 3
        # "mid" adds 1 (the 4), "small" adds 0.
        assert rows[1] == ("mid", 1, 4)
        assert rows[2] == ("small", 0, 4)

    def test_cumulative_equals_union(self):
        sets = {"a": {1, 2}, "b": {2, 3}, "c": {4}}
        rows = best_order(sets)
        assert rows[-1][2] == len({1, 2, 3, 4})


class TestOverlap:
    def test_jaccard(self):
        matrix = overlap_matrix({"a": {1, 2}, "b": {2, 3}})
        assert matrix[("a", "b")] == 1 / 3

    def test_disjoint(self):
        matrix = overlap_matrix({"a": {1}, "b": {2}})
        assert matrix[("a", "b")] == 0.0

    def test_empty_sets(self):
        matrix = overlap_matrix({"a": set(), "b": set()})
        assert matrix[("a", "b")] == 1.0


def test_interfaces_by_vantage():
    grouped = interfaces_by_vantage(
        [campaign("x", {1}), campaign("x", {2}), campaign("y", {3})]
    )
    assert grouped == {"x": {1, 2}, "y": {3}}
