"""Pinned results of the closed-loop harness itself.

``test_fast_equivalence`` compares the engine's two modes with each
other, so a change to the interval loop that both modes share would
move both together and pass.  These digests pin the loop: the sha256
of ``repr(RunResult)`` for four applications (two throughput, two
latency) under all four allocators, warm-up included, at 60 intervals
and two seeds.  Both modes must reproduce them.

One table serves every supported interpreter: no result depends on
how builtin ``sum()`` rounds, which CPython 3.12 changed by
compensating float sums.  ``test_convex_digest_under_compensated_sum``
replays 3.12's ``sum()`` in Python over ``builtins.sum`` and checks the
Convex cells, whose average-case profile once summed with it, against
the same digests; ``TestAggregatesUnderCompensatedSum`` does the same
for the aggregates read off the results (Table III's cost, the
geometric mean, the service's mean violation, a schedule's averages
and the latency Convex profile), which once summed with it as well.
"""

import builtins
import hashlib
import math

import pytest

from repro import perf
from repro.cloud.service import ServiceAccount, ServiceReport
from repro.experiments.harness import IntervalRecord, RunResult
from repro.experiments.scenarios import (
    _LatencyConvexAllocator,
    geometric_mean,
    make_latency_simulator,
    run_app_with_allocator,
)
from repro.arch.vcore import VCoreConfig
from repro.runtime.optimizer import (
    IDLE_POINT,
    ConfigPoint,
    Schedule,
    ScheduleEntry,
)
from repro.workloads.apps import get_app

INTERVALS = 60

DIGESTS = {
    ("x264", "optimal", 0): "4cbcef71962e4cbf1d23697f2319eea511f6adeeb4024deb968e30815cd31107",
    ("x264", "optimal", 3): "375188a603970743a70d6d8de5f96376397187df20848750b38d2883b4fb3957",
    ("x264", "convex", 0): "e508a4ea5b50d24ec68b0707a0e5a24297c6cbf7186c1b6d892e46f37e1c8262",
    ("x264", "convex", 3): "9232c9cb07f57c90b7f925591e92150b21bd2c05cf48a51e898d880f89a7ea56",
    ("x264", "race", 0): "7d36121467ac0ae1fac97a49eef7ea709269c0a9bd297e5809c2d3f089125cb4",
    ("x264", "race", 3): "0f8c73b272de5c7b3d67913e609ba0a78b351efeba209d7366dbf2dc60a4b70a",
    ("x264", "cash", 0): "a697b3fefc7693a30e0e740ea4cc332a79469347aeac4f16b9ac5ee6bed085bd",
    ("x264", "cash", 3): "3b7ce5fd28dfa24e6c54db0b2bbec49a3f8e0cb69fb810925a564ae7ca1b22aa",
    ("mcf", "optimal", 0): "1e0c156f31b0f6049a56e96e4788e68decefa86dc6a94b902aea55aaf9c6d8b0",
    ("mcf", "optimal", 3): "2d4d65ffce9f6c0d3b8150588096fc8b5f50f12e67c9760b5207fd18f9ca0b93",
    ("mcf", "convex", 0): "89b32dfcc37b1e03453d3385859f57cd14b0ffd083c38324e87ac5ee1945b190",
    ("mcf", "convex", 3): "02645d4789144e0c06e3c43c093edff38341b11f2c275665256164dc2f3b5ef9",
    ("mcf", "race", 0): "741d110b432a96a67fe8a291d0b278d81a265b9267312f33134fe525146a757a",
    ("mcf", "race", 3): "4f0669b153405f7dcae96751c8fb13c80de4fb771df0dbe736e731558ca34ccf",
    ("mcf", "cash", 0): "e33b25b6299533041c8fcb678c8102793303ffd67ca329e2348c5c61a5a722cd",
    ("mcf", "cash", 3): "19ea52c1d578f42f9ca829a3c53c715c8931c30204380303f8186d6d4969817d",
    ("apache", "optimal", 0): "4e26fd82a0e3cd7c0642789e88037a7e1f6ac1faa998e7dc12d1ff55a935a484",
    ("apache", "optimal", 3): "bc429eeb2ccf076b8abc5d5dd9bbb4f486c09e6feebaed1757df54879923ef6a",
    ("apache", "convex", 0): "a19a961ba0bdb7edf12cd7b836b3125d7a9093df3a1c9f789c4e4f2d6c9b564b",
    ("apache", "convex", 3): "a377b065666e658f626266d408e3a57c30ea2f551b1ea6275acf1fe25f3516c9",
    ("apache", "race", 0): "4eb6e74e72a7ca8fc8616499056137dbd5e4d73948e51a7f1ecc0a83fc106064",
    ("apache", "race", 3): "d909b4f8fb9ae708298368e447836b1525dbe69b74ed0542d7b716e657bda70f",
    ("apache", "cash", 0): "536e2f10261f7cfbfed5ad0011f0a72b88be6e0baf1f1d95a40be710831b0dac",
    ("apache", "cash", 3): "caad650e9e4e3ab506048b1b0566e99345cd08cf40bffcdf31417f4a849e2917",
    ("mailserver", "optimal", 0): "18e8ace720abe0c7d75bbd0c940d11ceb2b9f324a1706c1d0008a5820ff18744",
    ("mailserver", "optimal", 3): "4ff5ae9ced3a540d35b867dfaa45cbbb51f91f7681e199344ab9d3eb4c6ff4ad",
    ("mailserver", "convex", 0): "48e044a7aa3f9615c82272f38f1d3153a09e77ee5086bcb6185b4da70ced8449",
    ("mailserver", "convex", 3): "a92241a6d13c1314c022bb22b2a68d81e0713fd7a2ae0675565544246801054c",
    ("mailserver", "race", 0): "18f97e87ca0eda49541455c5b4ce9b318f98b49e8564398a0462766c23fa28b6",
    ("mailserver", "race", 3): "0f4cc9f46f53c06574fe19d5661c0025b8d4a21318768f119fb3b295e72750ed",
    ("mailserver", "cash", 0): "6f0d8974c0a2952dd9113109fb5bbd553053f2dc5666200cdb441304447f42b3",
    ("mailserver", "cash", 3): "75bbac13249f235ccfe1d4a43c0a3294547b33d01b850a0649dfb61b84ae1795",
}


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin ``sum()``, replayed in Python.

    Ints add exactly until the first other item; from a float total on,
    float items add with Neumaier's compensation, which joins the total
    at the end or before the first item that is neither float nor int;
    anything after that adds with plain ``+``.
    """
    iterator = iter(iterable)
    total = start
    if type(total) is int:
        for item in iterator:
            total = total + item
            if not isinstance(item, int):
                break
        else:
            return total
    if type(total) is float:
        compensation = 0.0
        for item in iterator:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in iterator:
        total = total + item
    return total


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
@pytest.mark.parametrize(
    "cell", sorted(DIGESTS), ids=lambda cell: "/".join(map(str, cell))
)
def test_run_result_digest(cell, fast):
    app_name, kind, seed = cell
    with perf.fast_paths(fast):
        result = run_app_with_allocator(
            app_name, kind, intervals=INTERVALS, seed=seed
        )
    digest = hashlib.sha256(repr(result).encode()).hexdigest()
    assert digest == DIGESTS[cell]


def test_compensated_sum_replays_the_compensation():
    # Left to right, both 1.0 terms vanish into 1e100 and the sum is
    # 0.0; a compensated sum keeps them.
    terms = [1.0, 1e100, 1.0, -1e100]
    assert compensated_sum(terms) == 2.0
    assert compensated_sum(iter(terms), 0.5) == 2.5
    assert compensated_sum([1, 2, 3]) == 6
    assert compensated_sum([]) == 0


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "reference"))
@pytest.mark.parametrize(
    "cell",
    sorted(cell for cell in DIGESTS if cell[1] == "convex"),
    ids=lambda cell: "/".join(map(str, cell)),
)
def test_convex_digest_under_compensated_sum(cell, fast, monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    app_name, kind, seed = cell
    with perf.fast_paths(fast):
        result = run_app_with_allocator(
            app_name, kind, intervals=INTERVALS, seed=seed
        )
    digest = hashlib.sha256(repr(result).encode()).hexdigest()
    assert digest == DIGESTS[cell]


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestAggregatesUnderCompensatedSum:
    """Each aggregate adds left to right, so replaying 3.12's ``sum()``
    moves none of them; each synthetic case is one where the two sums
    differ, so a return to builtin ``sum()`` fails here on any
    interpreter."""

    def test_cost_dollars(self, monkeypatch):
        idle = Schedule((ScheduleEntry(IDLE_POINT, 1.0),))
        rates = [1e16, 1.0, 1.0]
        assert compensated_sum(rates) != left_to_right(rates)
        synthetic = RunResult(
            "x", "y", 1.0, 1.0,
            [
                IntervalRecord(i, 0.0, "p", idle, 1.0, 1.0, 1.0, rate, False, 0)
                for i, rate in enumerate(rates)
            ],
        )
        cells = [
            run_app_with_allocator(app, kind, intervals=INTERVALS, seed=0)
            for app, kind in (("x264", "cash"), ("apache", "convex"))
        ]
        plain = [result.cost_dollars for result in cells]
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert synthetic.cost_dollars == left_to_right(rates) / 3
        assert [result.cost_dollars for result in cells] == plain

    def test_geometric_mean(self, monkeypatch):
        values = [0.01, 0.02, 0.1]
        logs = [math.log(value) for value in values]
        assert compensated_sum(logs) != left_to_right(logs)
        plain = geometric_mean(values)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert geometric_mean(values) == plain == math.exp(
            left_to_right(logs) / 3
        )

    def test_service_mean_violation_percent(self, monkeypatch):
        # 0.1, 0.2 and 0.3 percent, and an inactive tenant that does
        # not count.
        accounts = {
            tenant: ServiceAccount(tenant, active_intervals=active, violations=v)
            for tenant, active, v in ((3, 1000, 3), (1, 1000, 1), (2, 1000, 2), (4, 0, 0))
        }
        percents = [0.1, 0.2, 0.3]
        assert compensated_sum(percents) != left_to_right(percents)
        report = ServiceReport(
            intervals=10,
            admitted=4,
            rejected=0,
            accounts=accounts,
            tenant_intervals=0,
            active_steps=0,
            decide_steps=0,
            utilization_tile_intervals=0,
            fabric_tiles=1,
            defragmentations=0,
        )
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert report.mean_violation_percent == left_to_right(percents) / 3

    def test_schedule_averages(self, monkeypatch):
        speedups = (2.3, 1.7, 0.9)
        fractions = (0.1, 0.2, 0.7)
        terms = [s * f for s, f in zip(speedups, fractions)]
        assert compensated_sum(terms) != left_to_right(terms)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        schedule = Schedule(
            tuple(
                ScheduleEntry(ConfigPoint(VCoreConfig(1, 64), s, s), f)
                for s, f in zip(speedups, fractions)
            )
        )
        assert schedule.average_speedup == 1.2000000000000002
        assert schedule.average_cost_rate == left_to_right(terms)

    def test_latency_convex_profile(self, monkeypatch):
        sim = make_latency_simulator(get_app("apache"))
        plain = repr(_LatencyConvexAllocator(sim).points)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert repr(_LatencyConvexAllocator(sim).points) == plain
