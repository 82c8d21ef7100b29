"""Per-device circuit breaker for the serving layer.

A classic three-state breaker, made deterministic by counting *jobs*
instead of wall-clock time:

``CLOSED``
    the device serves traffic; each observed failure (a ``dead``
    device status in a job's health report, or a
    :class:`~repro.common.errors.FatalDeviceError` covering the whole
    pool) increments a consecutive-failure counter, and any success
    resets it.
``OPEN``
    after ``failure_threshold`` consecutive failures the device is
    excluded: :meth:`open_devices` reports it and the schedule stage
    fails its queue over to the rest of the fleet. A job whose whole
    fleet is open (:meth:`all_open`; one device for the FAST family)
    goes straight to the exact-CPU fallback. The state holds for
    ``cooldown_jobs`` served jobs (:meth:`job_tick`).
``HALF_OPEN``
    after the cooldown the next job that would use the device runs as
    a probe: the device is re-admitted for that one job. A clean
    probe closes the breaker; a failed probe re-opens it for a fresh
    cooldown.

Because failures under a seeded :class:`~repro.runtime.faults
.FaultPlan` are deterministic per device, the breaker's transition
sequence — and therefore every job's status — replays identically for
the same request trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class DeviceBreaker:
    """Breaker state of one device index."""

    state: str = CLOSED
    consecutive_failures: int = 0
    #: Served jobs remaining before an OPEN breaker half-opens.
    cooldown_remaining: int = 0
    #: Cumulative transition counts for metrics exposition.
    opened: int = 0
    closed: int = 0
    probes: int = 0


@dataclass
class CircuitBreaker:
    """Breakers for every device of the serving fleet."""

    #: Consecutive failures that trip a device's breaker.
    failure_threshold: int = 3
    #: Served jobs an open breaker waits before half-opening.
    cooldown_jobs: int = 8
    devices: dict[int, DeviceBreaker] = field(default_factory=dict)

    def device(self, index: int) -> DeviceBreaker:
        if index not in self.devices:
            self.devices[index] = DeviceBreaker()
        return self.devices[index]

    # -- queries (consulted by placement) ------------------------------

    def open_devices(self, num_devices: int) -> set[int]:
        """Device indices placement must avoid right now.

        A ``HALF_OPEN`` device is *not* reported: the next job that
        would use it is its probe. The schedule stage calls this hook
        through ``ctx.breaker`` once per run, for every fleet.
        """
        excluded = set()
        for index in range(num_devices):
            breaker = self.devices.get(index)
            if breaker is None:
                continue
            if breaker.state == OPEN:
                excluded.add(index)
            elif breaker.state == HALF_OPEN:
                breaker.probes += 1
        return excluded

    def all_open(self, num_devices: int) -> bool:
        """Whether no device of a pool can serve (reroute to CPU)."""
        return all(
            self.devices.get(i) is not None
            and self.devices[i].state == OPEN
            for i in range(num_devices)
        )

    # -- observations (fed from each job's health report) --------------

    def record_failure(self, index: int) -> None:
        breaker = self.device(index)
        breaker.consecutive_failures += 1
        if breaker.state == HALF_OPEN:
            # Failed probe: straight back to OPEN, fresh cooldown.
            breaker.state = OPEN
            breaker.opened += 1
            breaker.cooldown_remaining = self.cooldown_jobs
        elif (
            breaker.state == CLOSED
            and breaker.consecutive_failures >= self.failure_threshold
        ):
            breaker.state = OPEN
            breaker.opened += 1
            breaker.cooldown_remaining = self.cooldown_jobs

    def record_success(self, index: int) -> None:
        breaker = self.device(index)
        breaker.consecutive_failures = 0
        if breaker.state == HALF_OPEN:
            breaker.state = CLOSED
            breaker.closed += 1

    def job_tick(self) -> None:
        """Advance cooldowns by one served job (any job, any device)."""
        for breaker in self.devices.values():
            if breaker.state != OPEN:
                continue
            breaker.cooldown_remaining -= 1
            if breaker.cooldown_remaining <= 0:
                breaker.state = HALF_OPEN

    # -- exposition ----------------------------------------------------

    def to_dict(self) -> dict[str, dict[str, int | str]]:
        return {
            str(index): {
                "state": b.state,
                "consecutive_failures": b.consecutive_failures,
                "opened": b.opened,
                "closed": b.closed,
                "probes": b.probes,
            }
            for index, b in sorted(self.devices.items())
        }
