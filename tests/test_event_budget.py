"""Event budget: idle host workers must not cost simulator events.

Parked host workers wake only at the poll tick where work waits
(``repro.sim.doorbell``).  These budgets count every fired event over
the first 5 ms of two shipped specs, through the ``Simulator.checker``
hook; a poll loop that simulates its empty polls again blows through
them (the 0.5 µs busy loop fired 242,854 and 402,729 events here).
"""

import os

import pytest

from repro.scenario import build, from_file
from repro.scenario.run import SPEC_DIR
from repro.sim import Simulator


class _EventCount:
    """A ``Simulator.checker`` that only counts fired events."""

    def __init__(self) -> None:
        self.events = 0

    def on_schedule(self, when, seq, fn) -> None:
        pass

    def after_step(self, when, seq, fn) -> None:
        self.events += 1


@pytest.mark.parametrize("spec_name, budget", [
    ("multi-rack-rkv", 25_000),
    ("paper-testbed", 200_000),
])
def test_five_simulated_ms_fit_the_event_budget(spec_name, budget):
    sim = Simulator()
    count = _EventCount()
    sim.checker = count
    scenario = build(from_file(os.path.join(SPEC_DIR, spec_name + ".json")),
                     sim=sim)
    scenario.run(until=5_000.0)
    scenario.stop()
    assert 0 < count.events <= budget
