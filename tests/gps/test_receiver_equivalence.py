"""The receiver's bisect reads against the linear scans they replaced.

Every read of :class:`SimulatedGpsReceiver` answers from bisect keys over
the generated schedule.  The oracle below is the original read code — a
scan of the chronological ``(update_time, fix_or_None)`` schedule from
update 0 — run on a second, identically configured receiver, so any
divergence in a returned fix, update instant or fix list shows up, as
does any change in the schedule generated (RNG draw order, fault
injector consultation, counters).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoFixError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.gps.receiver import SimulatedGpsReceiver
from repro.gps.replay import WaypointSource
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH
FRAME = LocalFrame(GeoPoint(40.1, -88.22))
RATE_HZ = 5.0
HORIZON_S = 30.0


def schedule_of(receiver):
    """The receiver's schedule as chronological ``(time, fix_or_None)``."""
    fixes = dict(zip(receiver._fix_times, receiver._fixes))
    return [(t, fixes.get(t)) for t in receiver._times]


def oracle_fix_at(receiver, t):
    receiver._extend_schedule(t)
    latest = None
    for update_time, fix in schedule_of(receiver):
        if update_time > t:
            break
        if fix is not None:
            latest = fix
    return latest


def oracle_next_update_after(receiver, t):
    receiver._extend_schedule(t + 2.0 * receiver.period)
    for update_time, _ in schedule_of(receiver):
        if update_time > t:
            return update_time
    raise AssertionError("schedule extension failed")


def oracle_next_fix_after(receiver, t):
    horizon = t
    for _ in range(10_000):
        horizon += receiver.period
        receiver._extend_schedule(horizon)
        for update_time, fix in schedule_of(receiver):
            if update_time > t and fix is not None:
                return fix
    raise NoFixError(f"no surviving GPS update after t={t}")


def oracle_updates_between(receiver, t0, t1):
    receiver._extend_schedule(t1)
    return [fix for update_time, fix in schedule_of(receiver)
            if t0 < update_time <= t1 and fix is not None]


def make_receiver(config):
    source = WaypointSource([(T0, 0.0, 0.0), (T0 + HORIZON_S, 150.0, 40.0)])
    injector = None
    if config["dropout"] is not None:
        start, length = config["dropout"]
        injector = FaultInjector(FaultPlan("dropout", (FaultRule(
            "gps.update", "dropout", t_start=start,
            t_end=start + length),)), t0=T0)
    return SimulatedGpsReceiver(
        source, FRAME, update_rate_hz=RATE_HZ, start_time=T0,
        noise_std_m=1.0, miss_probability=config["miss_probability"],
        jitter_std_s=config["jitter_std_s"],
        forced_miss_indices=config["forced"], seed=config["seed"],
        injector=injector)


configs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "jitter_std_s": st.sampled_from([0.0, 0.01, 0.05, 0.5]),
    "miss_probability": st.sampled_from([0.0, 0.1, 0.5]),
    "forced": st.frozensets(st.integers(0, 120), max_size=12),
    "dropout": st.one_of(st.none(), st.tuples(
        st.floats(0.0, 20.0), st.floats(0.0, 6.0))),
})

#: One read: ``(method, a, b)``.  ``a``/``b`` are offsets from ``T0`` in
#: seconds or, as ``("update", k)``, the exact instant of update ``k``.
instants = st.one_of(st.floats(-1.0, HORIZON_S), st.tuples(
    st.just("update"), st.integers(0, int(HORIZON_S * RATE_HZ) - 1)))
queries = st.lists(st.tuples(
    st.sampled_from(["fix_at", "next_update_after", "next_fix_after",
                     "updates_between"]),
    instants, instants), min_size=1, max_size=25)


def resolve(instant, update_times):
    if isinstance(instant, tuple):
        return update_times[instant[1]]
    return T0 + instant


def read(receiver, method, a, b):
    try:
        if method == "updates_between":
            return receiver.updates_between(a, b)
        return getattr(receiver, method)(a)
    except NoFixError:
        return "no-fix"


def oracle_read(receiver, method, a, b):
    oracle = {"fix_at": oracle_fix_at,
              "next_update_after": oracle_next_update_after,
              "next_fix_after": oracle_next_fix_after}
    try:
        if method == "updates_between":
            return oracle_updates_between(receiver, a, b)
        return oracle[method](receiver, a)
    except NoFixError:
        return "no-fix"


@settings(max_examples=150, deadline=None)
@given(config=configs, reads=queries)
def test_bisect_reads_match_linear_scans(config, reads):
    reference = make_receiver(config)
    reference._extend_schedule(T0 + HORIZON_S)
    update_times = list(reference._times)
    fast, slow = make_receiver(config), make_receiver(config)
    for method, a, b in reads:
        a, b = resolve(a, update_times), resolve(b, update_times)
        assert read(fast, method, a, b) == oracle_read(slow, method, a, b)
    # Same schedule and counters, whatever the extension pattern was.
    fast._extend_schedule(T0 + HORIZON_S)
    slow._extend_schedule(T0 + HORIZON_S)
    assert schedule_of(fast) == schedule_of(slow)
    for counter in ("updates_generated", "updates_missed",
                    "updates_fault_suppressed"):
        assert getattr(fast, counter) == getattr(slow, counter)


def test_update_instants_strictly_increase_under_saturated_jitter():
    """Bisect is sound only on strictly increasing update times; jitter
    far beyond the clip still leaves every gap >= 20% of the period."""
    receiver = make_receiver({"seed": 4, "jitter_std_s": 5.0,
                              "miss_probability": 0.0,
                              "forced": frozenset(), "dropout": None})
    receiver._extend_schedule(T0 + HORIZON_S)
    gaps = [b - a for a, b in zip(receiver._times, receiver._times[1:])]
    # Epoch-sized times resolve to ~2.4e-7 s.
    assert min(gaps) >= 0.2 * receiver.period - 1e-6
