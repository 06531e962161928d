"""Pinned reports of the service engine itself.

``test_service_fast_equivalence`` compares the engine's two modes with
each other, and both run the same step loop, so a change to that loop
would move both together and pass.  These digests pin the loop: the
sha256 of ``repr(ServiceReport)`` for two open-churn scenarios on a
16x16 fabric at overcommit 2.0 and two ``CloudProvider`` runs (the
departure scenario and the half-CASH policy mix).  Both modes must
reproduce them.  The reports do not depend on how builtin ``sum()``
rounds, so one table serves every supported interpreter.
"""

import hashlib

import pytest

from repro import perf
from repro.cloud.traffic import TrafficSpec
from tests.cloud.test_service_fast_equivalence import run_closed, run_engine

DIGESTS = {
    ("traffic", 0): "160bf60a3017ae1c8887be476081346454038c8ec75fcf5d5f7f31b81a035502",
    ("traffic", 7): "bad9528c525a899771ffbff055c43e4cb1c16f0137e86559b7472c9e7a331449",
    ("closed", "departures"): "87aa2fac259faf29bae7e121ad99352380d0ef51a6e900b869022c6cee409655",
    ("closed", "half"): "a23a3b885c7a36e3616d311fbb772ecf822d59690e2c401471ad8d296fc035f9",
}


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


def run_scenario(scenario, fast):
    kind, key = scenario
    if kind == "traffic":
        spec = TrafficSpec(
            tenants=12, horizon=160, seed=key, activity=0.3, mean_burst=6.0
        )
        return run_engine(spec, fast=fast)
    with perf.fast_paths(fast):
        return run_closed(key)


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
@pytest.mark.parametrize(
    "scenario", list(DIGESTS), ids=lambda scenario: "/".join(map(str, scenario))
)
def test_service_report_digest(scenario, fast):
    report = run_scenario(scenario, fast)
    assert report.active_steps > report.decide_steps > 0
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert digest == DIGESTS[scenario]
