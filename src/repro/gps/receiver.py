"""A simulated GPS receiver with a realistic update discipline.

The hardware receiver in the paper updates its measurement register at a
configured rate (1-5 Hz), independent of when software reads it; readers
always see the *latest completed* update.  Occasionally the hardware skips
an update — the cause of the paper's one insufficient PoA at 5 Hz in the
residential study (§VI-A3).  This class reproduces that discipline over a
continuous position source:

* updates occur at ``start_time + k / rate`` plus optional phase jitter;
* each update may be missed with probability ``miss_probability`` or by
  explicit index (``forced_miss_indices``) for scripted scenarios;
* positions carry optional zero-mean Gaussian noise;
* reads return the most recent surviving update at or before the query
  time, never the instantaneous truth.

Update instants are strictly increasing (jitter is clipped to +-40% of the
period), so every read — :meth:`~SimulatedGpsReceiver.fix_at`,
:meth:`~SimulatedGpsReceiver.next_update_after`,
:meth:`~SimulatedGpsReceiver.next_fix_after` and
:meth:`~SimulatedGpsReceiver.updates_between` — bisects the generated
schedule: O(log n) in the number of updates generated so far (plus the
updates returned), rather than a scan from update 0.  A flight of n
updates therefore costs O(n log n) in reads, not O(n^2).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Protocol

from repro.errors import ConfigurationError, NoFixError
from repro.geo.geodesy import LocalFrame
from repro.gps.nmea import GpsFix, format_gprmc


class PositionSource(Protocol):
    """A continuous ground-truth trajectory in local-frame metres."""

    def position_at(self, t: float) -> tuple[float, float]:
        """Ground-truth ``(x, y)`` at time ``t`` (clamped to the trace)."""
        ...  # pragma: no cover - protocol


class SimulatedGpsReceiver:
    """Simulated NMEA GPS receiver over a :class:`PositionSource`.

    Args:
        source: ground-truth trajectory.
        frame: local frame used to express fixes as lat/lon.
        update_rate_hz: measurement update rate, 1-5 Hz for the paper's
            hardware (values outside that range are allowed for ablations).
        start_time: UNIX time of update 0.
        noise_std_m: per-axis Gaussian position noise.
        miss_probability: independent probability that an update is skipped.
        jitter_std_s: Gaussian jitter on each update instant (clipped to
            +-40% of the update period so updates stay ordered).
        forced_miss_indices: update indices that are always skipped.
        seed: RNG seed; the receiver is fully deterministic given it.
        rng: explicit randomness source; overrides ``seed`` so chaos runs
            can thread one seeded ``random.Random`` end to end.
        injector: optional :class:`~repro.faults.injector.FaultInjector`
            consulted once per hardware update at point
            ``"<fault_point>.update"`` — dropout bursts suppress the
            update, degradation rules add position error drawn from the
            injector's own RNG streams (the receiver's noise stream is
            untouched, so a no-fault run is bit-identical).
        fault_point: injection-point prefix this receiver reports as.
    """

    def __init__(self, source: PositionSource, frame: LocalFrame,
                 update_rate_hz: float = 5.0, start_time: float = 0.0,
                 noise_std_m: float = 0.0, miss_probability: float = 0.0,
                 jitter_std_s: float = 0.0,
                 forced_miss_indices: frozenset[int] | set[int] = frozenset(),
                 seed: int = 0, rng: random.Random | None = None,
                 injector=None, fault_point: str = "gps"):
        if update_rate_hz <= 0:
            raise ConfigurationError("update_rate_hz must be positive")
        if not 0.0 <= miss_probability < 1.0:
            raise ConfigurationError("miss_probability must be in [0, 1)")
        if noise_std_m < 0 or jitter_std_s < 0:
            raise ConfigurationError("noise/jitter std must be non-negative")
        self.source = source
        self.frame = frame
        self.update_rate_hz = float(update_rate_hz)
        self.period = 1.0 / float(update_rate_hz)
        self.start_time = float(start_time)
        self.noise_std_m = float(noise_std_m)
        self.miss_probability = float(miss_probability)
        self.jitter_std_s = float(jitter_std_s)
        self.forced_miss_indices = frozenset(forced_miss_indices)
        self._rng = rng if rng is not None else random.Random(seed)
        self._injector = injector
        self._update_point = f"{fault_point}.update"
        # The generated schedule as bisect keys: every update's time
        # (missed or not), and the surviving fixes beside their times.
        self._times: list[float] = []
        self._fix_times: list[float] = []
        self._fixes: list[GpsFix] = []
        self._next_index = 0
        self.updates_generated = 0
        self.updates_missed = 0
        #: Updates suppressed by an injected dropout (subset of missed).
        self.updates_fault_suppressed = 0

    # --- schedule construction ------------------------------------------

    def _nominal_time(self, index: int) -> float:
        return self.start_time + index * self.period

    def _extend_schedule(self, until: float) -> None:
        """Generate updates up to time ``until`` (inclusive of jitter slack)."""
        while self._nominal_time(self._next_index) <= until + self.period:
            index = self._next_index
            self._next_index += 1
            t = self._nominal_time(index)
            if self.jitter_std_s > 0:
                jitter = self._rng.gauss(0.0, self.jitter_std_s)
                limit = 0.4 * self.period
                t += max(-limit, min(limit, jitter))
            missed = (index in self.forced_miss_indices
                      or (self.miss_probability > 0
                          and self._rng.random() < self.miss_probability))
            fault_dx = fault_dy = 0.0
            if (self._injector is not None
                    and self._injector.active(self._update_point)):
                suppressed, fault_dx, fault_dy = self._injector.gps_update(
                    self._update_point, t)
                if suppressed and not missed:
                    self.updates_fault_suppressed += 1
                    missed = True
            self._times.append(t)
            if missed:
                self.updates_missed += 1
                continue
            self.updates_generated += 1
            self._fix_times.append(t)
            self._fixes.append(self._measure(t, fault_dx, fault_dy))

    def _measure(self, t: float, fault_dx: float = 0.0,
                 fault_dy: float = 0.0) -> GpsFix:
        x, y = self.source.position_at(t)
        if self.noise_std_m > 0:
            x += self._rng.gauss(0.0, self.noise_std_m)
            y += self._rng.gauss(0.0, self.noise_std_m)
        x += fault_dx
        y += fault_dy
        point = self.frame.to_geo(x, y)
        speed, course = self._velocity_at(t)
        return GpsFix(lat=point.lat, lon=point.lon, time=t,
                      speed_mps=speed, course_deg=course, valid=True)

    def _velocity_at(self, t: float) -> tuple[float, float]:
        """Finite-difference speed (m/s) and course (deg true) at ``t``."""
        h = self.period / 2.0
        x0, y0 = self.source.position_at(t - h)
        x1, y1 = self.source.position_at(t + h)
        vx, vy = (x1 - x0) / (2.0 * h), (y1 - y0) / (2.0 * h)
        speed = math.hypot(vx, vy)
        course = math.degrees(math.atan2(vx, vy)) % 360.0 if speed > 1e-9 else 0.0
        return speed, course

    # --- read interface ---------------------------------------------------

    def fix_at(self, t: float) -> GpsFix | None:
        """The most recent surviving update at or before ``t`` (or None)."""
        self._extend_schedule(t)
        i = bisect_right(self._fix_times, t)
        return self._fixes[i - 1] if i else None

    def require_fix_at(self, t: float) -> GpsFix:
        """Like :meth:`fix_at` but raises :class:`NoFixError` when empty."""
        fix = self.fix_at(t)
        if fix is None:
            raise NoFixError(f"no GPS fix available at t={t}")
        return fix

    def sentence_at(self, t: float) -> str:
        """The latest fix rendered as a ``$GPRMC`` sentence."""
        return format_gprmc(self.require_fix_at(t))

    def next_update_after(self, t: float) -> float:
        """The time of the first update (missed or not) strictly after ``t``.

        Fix-rate samplers use this to "wait until the first measurement
        update after waking" (paper §VI-A1).
        """
        self._extend_schedule(t + 2.0 * self.period)
        i = bisect_right(self._times, t)
        if i == len(self._times):
            # Schedule extension guarantees at least one future update.
            raise AssertionError("schedule extension failed")  # pragma: no cover
        return self._times[i]

    def next_fix_after(self, t: float) -> GpsFix:
        """The first *surviving* fix strictly after ``t`` (skips misses)."""
        horizon = t
        for _ in range(10_000):
            horizon += self.period
            self._extend_schedule(horizon)
            i = bisect_right(self._fix_times, t)
            if i < len(self._fixes):
                return self._fixes[i]
        raise NoFixError(f"no surviving GPS update after t={t}")

    def updates_between(self, t0: float, t1: float) -> list[GpsFix]:
        """All surviving fixes with update time in ``(t0, t1]``."""
        self._extend_schedule(t1)
        return self._fixes[bisect_right(self._fix_times, t0):
                           bisect_right(self._fix_times, t1)]
