"""Fixtures shared by the harness and CLI tests."""

import pytest

from myoarm import harness
from myoarm.arm import ArmState, IntegrationDivergedError


@pytest.fixture
def diverge_in_trial(monkeypatch):
    """``diverge_in_trial(trial, tick)`` makes ``harness.integrate_step`` raise
    ``IntegrationDivergedError("injected")``, carrying the tick's entry state
    as an ``ArmState``, at ``tick`` of the ``trial``-th ``harness.run_trial``
    call (both 0-based); parks and probes run outside any trial and are left
    alone."""
    real_trial, real_step = harness.run_trial, harness.integrate_step

    def install(trial, tick):
        trials, ticks = [], []

        def counting_trial(*args, **kwargs):
            trials.append(None)
            return real_trial(*args, **kwargs)

        def step(model, state, *args):
            if len(trials) == trial + 1:
                ticks.append(None)
                if len(ticks) == tick + 1:
                    raise IntegrationDivergedError("injected", ArmState.from_floats(state))
            return real_step(model, state, *args)

        monkeypatch.setattr(harness, "run_trial", counting_trial)
        monkeypatch.setattr(harness, "integrate_step", step)

    return install
