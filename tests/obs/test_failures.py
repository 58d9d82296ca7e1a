"""FailureReport: cause counters, attempt history, and the manifest
``failures`` block the supervised runner ships home."""

import json

from repro.obs import FAILURES_FORMAT, FailureReport
from repro.obs.failures import (
    CAUSE_CORRUPT,
    CAUSE_CRASH,
    CAUSE_TIMEOUT,
    CAUSE_WORKER_DIED,
    COUNTER_NAMES,
    MAX_DETAIL_CHARS,
)


class TestCounters:
    def test_clean_report_dumps_explicit_zeros(self):
        """A campaign that needed no supervision still dumps every
        counter at zero — an absent counter would be ambiguous."""
        report = FailureReport()
        assert report.counts() == {name: 0 for name in COUNTER_NAMES}
        block = report.to_dict()
        assert block["format"] == FAILURES_FORMAT
        assert block["attempts"] == []
        assert sorted(block["metrics"]) == sorted(COUNTER_NAMES)

    def test_each_cause_feeds_its_own_counter(self):
        report = FailureReport()
        report.record_fault(0, 1, CAUSE_CRASH, "boom")
        report.record_fault(1, 1, CAUSE_TIMEOUT)
        report.record_fault(1, 2, CAUSE_WORKER_DIED)
        report.record_fault(2, 1, CAUSE_CORRUPT)
        report.record_fault(2, 2, CAUSE_CORRUPT)
        counts = report.counts()
        assert counts["shard.crashes"] == 1
        assert counts["shard.timeouts"] == 1
        assert counts["shard.worker_deaths"] == 1
        assert counts["shard.corrupt_results"] == 2
        assert counts["shard.retries"] == 0

    def test_retries_count(self):
        report = FailureReport()
        report.record_retry(3)
        report.record_retry(3)
        assert report.counts()["shard.retries"] == 2


class TestAttempts:
    def test_faults_sorted_by_shard_then_attempt(self):
        report = FailureReport()
        report.record_fault(3, 1, CAUSE_CRASH)
        report.record_fault(0, 2, CAUSE_TIMEOUT)
        report.record_fault(0, 1, CAUSE_CRASH)
        assert [(f["shard"], f["attempt"]) for f in report.faults()] == [
            (0, 1),
            (0, 2),
            (3, 1),
        ]

    def test_detail_clipped_to_the_traceback_tail(self):
        """The raising frame sits at the bottom of a traceback, so the
        clip keeps the tail and marks the cut."""
        report = FailureReport()
        detail = "x" * MAX_DETAIL_CHARS + "TAIL"
        report.record_fault(0, 1, CAUSE_CRASH, detail)
        stored = report.faults()[0]["detail"]
        assert stored.startswith("...[truncated]...\n")
        assert stored.endswith("TAIL")
        assert len(stored) <= MAX_DETAIL_CHARS + len("...[truncated]...\n")

    def test_short_detail_survives_verbatim(self):
        report = FailureReport()
        report.record_fault(0, 1, CAUSE_CRASH, "short")
        assert report.faults()[0]["detail"] == "short"


class TestBlock:
    def test_to_dict_is_json_ready(self):
        report = FailureReport()
        report.record_fault(1, 1, CAUSE_CRASH, "boom")
        report.record_retry(1)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert json.loads(text) == report.to_dict()

    def test_attempts_are_copies_not_views(self):
        report = FailureReport()
        report.record_fault(1, 1, CAUSE_CRASH, "boom")
        report.faults()[0]["cause"] = "tampered"
        assert report.faults()[0]["cause"] == CAUSE_CRASH
