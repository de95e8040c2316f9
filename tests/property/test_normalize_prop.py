"""Property test for what :func:`repro.sim.chaos.normalize` promises.

Any subset of a generated plan (what ddmin hands the shrinker), once
normalized, replays on its scenario's home to the horizon without a
``FaultError``: every paired state machine of ``PAIRED_KINDS`` stays
consistent however many starts or clears the subset lost.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.scenarios import chaos_scenario, device_scenario
from repro.core.scenario import build_sim_home
from repro.eval.chaos import chaos_domain, device_domain
from repro.sim.chaos import PROFILES, FaultScheduleGenerator, normalize
from repro.sim.faults import FaultPlan

#: profile -> (scenario builder, domain builder): the standard campaign
#: under each historical profile and the device campaign.
CAMPAIGNS = {
    "mild": (lambda: chaos_scenario("gapless"), chaos_domain),
    "moderate": (lambda: chaos_scenario("gapless"), chaos_domain),
    "severe": (lambda: chaos_scenario("gapless"), chaos_domain),
    "device": (lambda: device_scenario(True), device_domain),
}


@pytest.mark.parametrize("profile", sorted(CAMPAIGNS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**31 - 1),
    horizon=st.integers(300, 1800),
    data=st.data(),
)
def test_a_normalized_subset_of_a_generated_plan_replays_cleanly(
    profile, seed, horizon, data
):
    scenario, domain = CAMPAIGNS[profile]
    plan = FaultScheduleGenerator(
        domain(), PROFILES[profile], float(horizon)
    ).generate(seed)
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(plan), max_size=len(plan))
    )
    subset = [action for action, kept in zip(plan.actions, keep) if kept]

    home = build_sim_home(scenario(), seed=seed, keep_trace_kinds=set())
    FaultPlan(normalize(subset)).apply(home)
    home.run_until(float(horizon))  # a FaultError here fails the test
