"""Fixtures shared across the test tree."""

import pytest

from repro.sim.tenure import TenureMonitor
from repro.sim.trace import ExecutionSpan


class SpanLog:
    """Every span each tenure monitor checked, traced run or not.

    An untraced run stores no spans, but its monitor still sees each one
    as it closes; differential tests that must compare two untraced runs
    span by span read them here."""

    def __init__(self):
        #: monitor -> the spans it checked, in arrival order
        self.logs = {}

    def spans(self, tracer):
        """``tracer``'s checked spans in the order a traced run stores
        them: by end time, ties in arrival order."""
        return sorted(self.logs.get(tracer.monitor, ()), key=lambda s: s.end)

    def runs(self):
        """``spans`` of every monitor that checked one, in the order
        their first spans arrived."""
        return [sorted(log, key=lambda s: s.end) for log in self.logs.values()]


@pytest.fixture
def span_log(monkeypatch):
    log = SpanLog()
    check = TenureMonitor.span

    def logged(monitor, core, domain, start, end):
        log.logs.setdefault(monitor, []).append(
            ExecutionSpan(core, domain, start, end)
        )
        check(monitor, core, domain, start, end)

    monkeypatch.setattr(TenureMonitor, "span", logged)
    return log
