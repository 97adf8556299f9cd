"""Vectorized cohort kernel: advance a whole shard in bulk, not by event.

The discrete-event engine pays Python-object overhead per scheduled
event — a heap push/pop, a closure call, a dataclass — roughly 200 µs
of bookkeeping per device wake. At the fleet densities Wi-LE targets
(100k+ devices; see arxiv 1505.06815 / 1909.00594 for the regime) that
overhead dwarfs the physics. This kernel exploits what makes the fleet
workload special: every device runs the *same* duty cycle (sleep, boot,
inject one fixed-length beacon, sleep), every random draw is pre-frozen
into the shard's member columns, and the channel model is
deterministic. So instead of simulating events we *replay* them:

1. **Batched wake scheduling** — each device's wake/transmit timeline is
   generated directly from its columns (the exact float-by-float recurrence
   the event engine would produce, including the clock's gated gauss
   draws), giving a structure-of-arrays timeline for the whole cohort.
2. **Slot-level medium arbitration** — transmissions are sorted once;
   because every beacon has the same airtime, a transmission overlaps
   another iff it overlaps a neighbour in start order, and its overlap
   set is a contiguous window. Transmissions that overlap nothing (the
   overwhelming majority in a jittered steady state) resolve in bulk:
   their delivery outcome at every in-range gateway was precomputed per
   device. Only the others get their window, from two ``searchsorted``
   calls.
3. **Demotion** — a transmission that *does* overlap (a collision
   candidate), falls inside a fault window, or otherwise enters an
   "interesting" state is demoted to the exact per-event arithmetic:
   the same scalar ``math`` calls, in the same order, as
   :meth:`repro.sim.medium.WirelessMedium._deliver_to`. Once resolved
   the device is promoted back to the cohort. Demotion is per
   transmission, so a device pays the exact path only for the instants
   that need it. The demoted work runs one gateway at a time, so the
   interferer powers it caches never outgrow the shard's devices.
4. **Bulk charge integration** — per-wake energy is a single constant,
   and the event engine accumulates it with sequential float adds; the
   kernel reproduces those exact partial sums with ``np.add.accumulate``.

Equivalence contract
--------------------
``run_shard_cohort(shard)`` returns a :class:`FleetAggregate` whose
integer counters are **bit-identical** to ``run_shard(shard)`` and
whose float moments match to the merge tolerance (in practice exactly,
because each per-device float is produced by the same sequence of
scalar operations). The ``cohort-vs-event`` oracles in
:mod:`repro.check.differential` enforce this on every check run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ..core.codec import BeaconTemplate, device_mac
from ..core.payload import WileFlags, WileMessage, WileMessageType
from ..dot11.airtime import frame_airtime_us
from ..dot11.channels import channel_frequency_hz
from ..dot11.rates import WILE_DEFAULT_RATE, WILE_TX_POWER_DBM
from ..energy import calibration as cal
from ..energy.esp32 import Esp32PowerModel, Esp32State
from ..obs.metrics import METRICS
from ..phy.link import frame_delivered
from ..phy.pathloss import (BANDWIDTH_HZ, CAPTURE_THRESHOLD_DB, MIN_DISTANCE_M,
                            PATH_LOSS_EXPONENT, noise_floor_dbm,
                            received_power_dbm)
from ..sim import JitteryClock
from .aggregate import FleetAggregate
from .population import DEFAULT_INTERFERENCE_RANGE_M, DEFAULT_MAX_RANGE_M
from .shards import _BOOT_ENERGY_J, ShardSpec, _steady_reading, run_shard


class KernelError(ValueError):
    """Raised for an unknown kernel name."""


@dataclass
class KernelStats:
    """Observability for one cohort run (its totals are also counted in
    METRICS)."""

    devices: int = 0
    transmissions: int = 0
    #: transmissions settled on the bulk (vectorized) path
    cohort_resolved: int = 0
    #: transmissions demoted to the exact per-event arithmetic
    demotions: int = 0
    #: distinct devices that were demoted at least once
    demoted_devices: int = 0
    #: demotion episodes that resolved, returning the device to the cohort
    promotions: int = 0
    #: overlapping transmissions still on the air at the horizon — their
    #: devices end the run demoted (the event engine never decides them
    #: either; they count as ``beacons_in_flight``)
    still_demoted_at_horizon: int = 0


def _frame_length_bytes(device_id: int, channel: int) -> int:
    """Wire length of one steady-state fleet beacon.

    The fleet payload is constant (:func:`repro.fleet.shards.
    _steady_reading`) and every header field is fixed-width, so the
    length — hence the airtime — is uniform across devices, sequence
    numbers and timestamps. The kernel's constant-airtime overlap
    windows rest on that; :func:`run_shard_cohort` spot-checks it at
    both ends of the id range.
    """
    template = BeaconTemplate(source=device_mac(device_id), channel=channel)
    message = WileMessage(device_id=device_id, sequence=1,
                          message_type=WileMessageType.SENSOR_DATA,
                          readings=_steady_reading(), flags=WileFlags.NONE,
                          rx_window_ms=0)
    beacon = template.build(message, timestamp_us=0, sequence=1)
    return len(beacon.to_bytes())


def _sequential_sum_table(addend: float, count: int) -> np.ndarray:
    """``table[k]`` = the float the event engine reaches after adding
    ``addend`` to 0.0 exactly ``k + 1`` times, in order.

    ``np.add.accumulate`` is a strictly sequential prefix sum (unlike
    ``np.sum``'s pairwise reduction), so each entry is bit-identical to
    the Python loop it replaces.
    """
    if count <= 0:
        return np.zeros(0)
    return np.add.accumulate(np.full(count, addend))


#: Additions per :func:`_sequential_sum` step: bounds its buffer to 512 KB.
_SUM_CHUNK = 1 << 16

#: Rows per step of :func:`_rows`, of the sender column and of
#: :func:`_overlap_windows`: bounds the Python scalars a per-device loop
#: holds, and the temporaries of a per-transmission pass, whatever the
#: shard's size.
_ROW_CHUNK = 1 << 12


def _rows(*columns: np.ndarray):
    """The rows of equal-length columns as tuples of Python scalars,
    converted :data:`_ROW_CHUNK` rows at a time, so no whole-column list
    exists."""
    for start in range(0, len(columns[0]), _ROW_CHUNK):
        yield from zip(*(column[start:start + _ROW_CHUNK].tolist()
                         for column in columns))


def _sequential_sum(addend: float, count: int) -> float:
    """``_sequential_sum_table(addend, count)[-1]`` (0.0 for no adds)
    without the table: each step accumulates ``[carry, addend, …]``,
    the same sequential adds in bounded chunks."""
    total = 0.0
    while count > 0:
        step = min(count, _SUM_CHUNK)
        buffer = np.full(step + 1, addend)
        buffer[0] = total
        total = float(np.add.accumulate(buffer, out=buffer)[-1])
        count -= step
    return total


def _overlap_windows(starts: np.ndarray, airtime_s: float,
                     horizon_s: float):
    """Overlap flags and demoted windows of a sorted timeline of
    constant-airtime transmissions.

    Returns ``(completed, overlapped, demoted, lo, hi)``:

    * transmissions ``[0, completed)`` end by ``horizon_s`` — ends are
      sorted, so the completed ones are a prefix;
    * ``overlapped[j]`` is True iff another transmission shares the air
      with j;
    * ``demoted`` holds the completed, overlapped transmissions in start
      order, and ``[lo[i], hi[i])`` is the overlap window of
      ``demoted[i]``, itself included (all three int32).

    Boundary instants are *inclusive* on both sides: at equal timestamps
    the event engine fires a transmit before a completion (the
    transmit's wake chain was scheduled a whole boot earlier, so it
    holds the smaller insertion counter), meaning an exactly adjacent
    frame still lands in the overlap set. With constant airtime both
    starts and ends (``starts + airtime_s``) are sorted, so j's window
    is the contiguous ``[searchsorted(ends, starts[j], "left"),
    searchsorted(starts, ends[j], "right"))``, and it holds more than j
    iff a neighbour touches j: ``ends[j - 1] >= starts[j]`` or
    ``starts[j + 1] <= ends[j]``. So the flags need one comparison per
    adjacent pair, and only demoted transmissions pay for the two
    searches.

    Both passes run :data:`_ROW_CHUNK` transmissions at a time, so no
    whole-timeline ``ends`` exists. A chunk's ``lo`` searches only the
    ends from ``searchsorted(starts, starts[f] - 2 * airtime_s)`` on,
    where ``f`` is the chunk's first demoted transmission: every
    earlier transmission ends more than an airtime before
    ``starts[f]``, so it counts toward every window of the chunk.
    """
    count = starts.size
    overlapped = np.zeros(count, dtype=bool)
    completed = 0
    for s in range(0, count, _ROW_CHUNK):
        ends = starts[s:s + _ROW_CHUNK] + airtime_s
        completed += int(np.searchsorted(ends, horizon_s, side="right"))
        touching = ends[:count - 1 - s] >= starts[s + 1:s + 1 + _ROW_CHUNK]
        overlapped[s + 1:s + 1 + touching.size] |= touching
        overlapped[s:s + touching.size] |= touching
    flagged = overlapped[:completed]
    demoted = np.empty(np.count_nonzero(flagged), dtype=np.int32)
    lo = np.empty_like(demoted)
    hi = np.empty_like(demoted)
    filled = 0
    for s in range(0, completed, _ROW_CHUNK):
        chunk = s + np.flatnonzero(flagged[s:s + _ROW_CHUNK])
        if not chunk.size:
            continue
        window = slice(filled, filled + chunk.size)
        filled += chunk.size
        demoted[window] = chunk
        chunk_starts = starts[chunk]
        hi[window] = np.searchsorted(starts, chunk_starts + airtime_s,
                                     side="right")
        base = int(np.searchsorted(starts, chunk_starts[0] - 2 * airtime_s))
        lo[window] = base + np.searchsorted(
            starts[base:chunk[-1] + 1] + airtime_s, chunk_starts, side="left")
    return completed, overlapped, demoted, lo, hi


def run_shard_cohort(shard: ShardSpec,
                     stats: KernelStats | None = None) -> FleetAggregate:
    """Simulate one shard with the cohort kernel; exact twin of
    :func:`repro.fleet.shards.run_shard` for the fleet workload.

    Module-level and picklable-in/picklable-out, so it fans out over
    the experiment process pool exactly like ``run_shard`` — checkpoint
    files written from its aggregates are interchangeable with the
    event engine's.
    """
    if stats is None:
        stats = KernelStats()
    if shard.trajectories and any(
            trajectory.moves_on_epoch_grid(shard.duration_s)
            for trajectory in shard.trajectories):
        # Devices that actually move break the kernel's core premise —
        # per-device delivery outcomes precomputed once from a fixed
        # geometry. Demote the whole shard to the exact event engine
        # (the same demotion discipline as step 3, at shard
        # granularity); zero-speed mobility shards fall through and stay
        # vectorized.
        stats.demotions += 1
        METRICS.counter("fleet.kernel.mobility_demotions").inc()
        return run_shard(shard)
    aggregate = FleetAggregate(
        device_count=int(np.count_nonzero(shard.owned)),
        receiver_count=len(shard.receivers),
        shard_count=1,
        duration_s=shard.duration_s)

    n_devices = len(shard.device_id)
    stats.devices = n_devices
    if n_devices == 0:
        return aggregate

    # -- constants: the propagation model the event engine's medium uses --
    duration = shard.duration_s
    max_range = DEFAULT_MAX_RANGE_M
    noise_mw = 10.0 ** (noise_floor_dbm(BANDWIDTH_HZ) / 10.0)
    frequency_hz = channel_frequency_hz(shard.channel)

    rate = WILE_DEFAULT_RATE
    power_dbm = WILE_TX_POWER_DBM
    frame_len = _frame_length_bytes(int(shard.device_id[0]), shard.channel)
    if _frame_length_bytes(int(shard.device_id[-1]),
                           shard.channel) != frame_len:
        raise KernelError("fleet beacon length is not uniform; the "
                          "cohort kernel's constant-airtime arbitration "
                          "does not apply")
    airtime_s = frame_airtime_us(frame_len, rate) / 1e6
    boot_s = cal.WILE_BOOT_S
    # The TX window the device schedules its back-to-sleep after
    # (WiLEDevice._tx_window_s): warm-up plus airtime, in that order.
    window_s = cal.WILE_RADIO_WARMUP_S + airtime_s
    tx_energy_j = window_s * Esp32PowerModel().power_w(Esp32State.TX_LOW)
    wake_energy_j = tx_energy_j + _BOOT_ENERGY_J

    # -- 1. batched wake scheduling ---------------------------------------
    # Replay each device's duty-cycle recurrence exactly as the event
    # engine would schedule it: wake at t (fires iff t <= horizon), boot,
    # transmit at t + boot (records iff <= horizon), back-to-sleep at
    # + window (one gated clock draw iff <= horizon), repeat. Every
    # transmit instant goes into one flat float64 buffer, device by
    # device: 8 bytes per transmission.
    records = np.zeros(n_devices, dtype=np.int64)
    timeline = array("d")
    append = timeline.append
    interval = shard.interval_s
    for index, (first_wake_s, drift_ppm, clock_seed) in enumerate(_rows(
            shard.first_wake_s, shard.drift_ppm, shard.clock_seed)):
        actual_interval = JitteryClock(
            drift_ppm=drift_ppm, jitter_std_s=shard.jitter_std_s,
            seed=clock_seed).actual_interval_s
        t = max(first_wake_s, 1e-9)
        before = len(timeline)
        while t <= duration:
            transmit_at = t + boot_s
            if transmit_at > duration:
                break
            append(transmit_at)
            sleep_at = transmit_at + window_s
            if sleep_at > duration:
                break
            t = sleep_at + actual_interval(interval)
        records[index] = len(timeline) - before

    total_tx = int(records.sum())
    stats.transmissions = total_tx

    # -- 2. slot-level medium arbitration ---------------------------------
    # One flat, stably sorted timeline. Ties (the synchronised-start
    # worst case) keep device-id order, which is exactly the event
    # engine's fire order for simultaneous wakes: every callback chain
    # traces back to device.start() calls made in sorted-id order.
    # The kernel peaks here, at ~20 bytes per transmission: the buffer,
    # the 8-byte sort order and the int32 sender column; the overlap
    # pass then holds a flag byte per transmission and three int32s per
    # demoted one.
    starts = np.frombuffer(timeline)
    order = np.argsort(starts, kind="stable")
    # Sorted in place, the buffer holds exactly ``starts[order]``: equal
    # keys are equal floats, so the sort's stability cannot show.
    starts.sort()
    del timeline, append
    # Sender of each sorted transmission, gathered into ``order``'s own
    # buffer chunk by chunk, so no second whole-timeline index exists.
    sender = np.repeat(np.arange(n_devices, dtype=np.int32), records)
    for s in range(0, total_tx, _ROW_CHUNK):
        order[s:s + _ROW_CHUNK] = sender[order[s:s + _ROW_CHUNK]]
    del sender
    device_of = order.astype(np.int32)
    del order
    completed_count, overlapped, demoted, lo, hi = _overlap_windows(
        starts, airtime_s, duration)
    del starts
    completed = np.bincount(device_of[:completed_count],
                            minlength=n_devices)
    stats.demotions = int(demoted.size)
    stats.still_demoted_at_horizon = int(
        np.count_nonzero(overlapped[completed_count:]))
    # Distinct senders by bincount, not np.unique: numpy 2's unique
    # imports numpy.ma (~0.5 MB) on first use.
    stats.demoted_devices = int(np.count_nonzero(np.bincount(
        device_of[overlapped], minlength=n_devices)))
    del overlapped
    # Group the demoted transmissions by sender, start order within
    # each: sender i's are entries [first_demoted[i], first_demoted[i+1]).
    senders = device_of[demoted]
    demoted_per_device = np.bincount(senders, minlength=n_devices)
    by_sender = np.argsort(senders, kind="stable")
    demoted, lo, hi = demoted[by_sender], lo[by_sender], hi[by_sender]
    del senders, by_sender
    first_demoted = np.concatenate(
        ([0], np.cumsum(demoted_per_device))).tolist()

    # Per-(device, gateway) delivery precompute, scalar math only: the
    # delivery decision is a threshold comparison, so the kernel must
    # produce the same *bits* as WirelessMedium._deliver_to, and numpy's
    # vectorized transcendentals are allowed to differ by ulps. Gateways
    # are bucketed into max_range cells exactly like the medium's
    # listening grid, so each device scans its 3x3 neighbourhood.
    gateway_x = [receiver.x_m for receiver in shard.receivers]
    gateway_y = [receiver.y_m for receiver in shard.receivers]
    gateway_id = [receiver.receiver_id for receiver in shard.receivers]
    cells: dict[tuple[int, int], list[int]] = {}
    for gi in range(len(shard.receivers)):
        key = (int(gateway_x[gi] // max_range),
               int(gateway_y[gi] // max_range))
        cells.setdefault(key, []).append(gi)

    # Each member's designated receiver id, or -1 if this shard does not
    # score its uplink.
    designated_id = np.full(n_devices, -1, dtype=np.int64)
    designated_id[np.searchsorted(shard.device_id,
                                  shard.designated[:, 0])] = (
        shard.designated[:, 1])
    pair_sender = array("i")
    pair_gateway = array("i")
    pair_signal = array("d")
    pair_uplink = array("b")
    clean_delivered = np.zeros(n_devices, dtype=np.int64)
    clean_lost_snr = np.zeros(n_devices, dtype=np.int64)
    uplink_ok = np.zeros(n_devices, dtype=np.int64)
    uplink_bad = np.zeros(n_devices, dtype=np.int64)
    # Only the senders of demoted transmissions (step 3b) need their
    # per-gateway signals again; everyone else is settled in bulk.
    for index, (x, y, demoted_sender, receiver_id) in enumerate(_rows(
            shard.x_m, shard.y_m, demoted_per_device > 0, designated_id)):
        column = int(x // max_range)
        row = int(y // max_range)
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                for gi in cells.get((column + dc, row + dr), ()):
                    distance = max(MIN_DISTANCE_M,
                                   math.hypot(x - gateway_x[gi],
                                              y - gateway_y[gi]))
                    if distance > max_range:
                        continue
                    signal_dbm = received_power_dbm(
                        power_dbm, distance, exponent=PATH_LOSS_EXPONENT,
                        frequency_hz=frequency_hz)
                    uplink = receiver_id == gateway_id[gi]
                    if demoted_sender:
                        pair_sender.append(index)
                        pair_gateway.append(gi)
                        pair_signal.append(signal_dbm)
                        pair_uplink.append(uplink)
                    sinr_db = signal_dbm - 10.0 * math.log10(noise_mw)
                    ok = frame_delivered(sinr_db, frame_len, rate)
                    if ok:
                        clean_delivered[index] += 1
                    else:
                        clean_lost_snr[index] += 1
                    if uplink:
                        if ok:
                            uplink_ok[index] = 1
                        else:
                            uplink_bad[index] = 1

    # -- 3a. bulk resolution of the unoverlapped majority -----------------
    # No overlap means no collision branch: every completed transmission
    # scores its precomputed per-gateway outcomes.
    clean_per_device = completed - demoted_per_device
    aggregate.pair_delivered += int((clean_per_device * clean_delivered).sum())
    aggregate.pair_lost_snr += int((clean_per_device * clean_lost_snr).sum())
    aggregate.uplink_delivered += int((clean_per_device * uplink_ok).sum())
    aggregate.uplink_lost_snr += int((clean_per_device * uplink_bad).sum())
    stats.cohort_resolved = completed_count - stats.demotions

    # Positions by member index as Python floats, one element at a time,
    # without a list per column: the demotion pass reads its interferers'
    # and the uplink check its senders'.
    device_x, device_y = memoryview(shard.x_m), memoryview(shard.y_m)

    # -- 3b. demotion: exact per-event arithmetic for the interesting -----
    # states, one gateway at a time. Each (transmission, gateway) SINR
    # sums its interference in overlap-window order, which is the event
    # engine's ``transmission.overlapping`` order (sorted by start, ties
    # in device order), so the float sum — and therefore every threshold
    # decision — is reproduced exactly; only the order in which the
    # integer counters grow differs from the event engine's. Each gateway
    # caches its interferers' powers by device and drops them when done,
    # so the cache never outgrows the shard's devices.
    if stats.demotions:
        by_gateway = np.argsort(np.frombuffer(pair_gateway, dtype=np.intc),
                                kind="stable").tolist()
        for gi, pairs in groupby(by_gateway, key=pair_gateway.__getitem__):
            gx, gy = gateway_x[gi], gateway_y[gi]
            powers: dict[int, float] = {}
            for p in pairs:
                sender = pair_sender[p]
                signal_dbm = pair_signal[p]
                uplink = pair_uplink[p]
                first, last = first_demoted[sender], first_demoted[sender + 1]
                for j, low, high in zip(demoted[first:last].tolist(),
                                        lo[first:last].tolist(),
                                        hi[first:last].tolist()):
                    others = device_of[low:high].tolist()
                    del others[j - low]
                    interference_mw = 0.0
                    for other in others:
                        power = powers.get(other)
                        if power is None:
                            other_distance = max(
                                MIN_DISTANCE_M,
                                math.hypot(device_x[other] - gx,
                                           device_y[other] - gy))
                            # Out of range adds 0.0: the sum keeps its bits.
                            power = 0.0
                            if other_distance <= DEFAULT_INTERFERENCE_RANGE_M:
                                other_dbm = received_power_dbm(
                                    power_dbm, other_distance,
                                    exponent=PATH_LOSS_EXPONENT,
                                    frequency_hz=frequency_hz)
                                power = 10.0 ** (other_dbm / 10.0)
                            powers[other] = power
                        interference_mw += power
                    sinr_db = signal_dbm - 10.0 * math.log10(
                        noise_mw + interference_mw)
                    if sinr_db < CAPTURE_THRESHOLD_DB:
                        aggregate.pair_lost_collision += 1
                        outcome = "collision"
                    elif not frame_delivered(sinr_db, frame_len, rate):
                        aggregate.pair_lost_snr += 1
                        outcome = "snr"
                    else:
                        aggregate.pair_delivered += 1
                        outcome = "ok"
                    if uplink:
                        if outcome == "ok":
                            aggregate.uplink_delivered += 1
                        elif outcome == "collision":
                            aggregate.uplink_lost_collision += 1
                        else:
                            aggregate.uplink_lost_snr += 1
        # Every resolved episode re-homogenizes its device: promotion.
        stats.promotions = stats.demotions

    # -- 4. bulk charge integration and per-device accounting -------------
    owned_mask = shard.owned
    uncovered = np.isin(shard.device_id, shard.uncovered)
    if shard.designated_uplinks:
        # Zero-speed mobility shards ship unfiltered designated pairs
        # and an empty ``uncovered``; positions never change here (the
        # moving case demoted above), so the event engine's per-record
        # range predicate collapses to a per-device classification —
        # same floats, same strict inequality.
        uplink_ids, uplink_x, uplink_y = zip(*shard.designated_uplinks)
        for index, x_m, y_m in zip(
                np.searchsorted(shard.device_id, uplink_ids).tolist(),
                uplink_x, uplink_y):
            if math.hypot(device_x[index] - x_m,
                          device_y[index] - y_m) > max_range:
                uncovered[index] = True
    aggregate.wakes += int(records[owned_mask].sum())
    owned_completed = int(completed[owned_mask].sum())
    aggregate.beacons_sent += owned_completed
    aggregate.beacons_in_flight += int(
        (records - completed)[owned_mask].sum())
    aggregate.uplink_out_of_range += int(
        completed[owned_mask & uncovered].sum())
    # The event engine's airtime counter is a sequential sum of one
    # constant per completed owned beacon; same for per-device energy.
    aggregate.airtime_s += _sequential_sum(airtime_s, owned_completed)
    energy_table = _sequential_sum_table(wake_energy_j, int(records.max())
                                         if n_devices else 0)
    for count, owned in _rows(records, owned_mask):
        if not owned:
            continue  # halo copies are scored by their home shard
        energy_j = float(energy_table[count - 1]) if count else 0.0
        average_current_a = (cal.ESP32_DEEP_SLEEP_A
                             + energy_j / (cal.SUPPLY_VOLTAGE_V * duration))
        aggregate.energy_j.observe(energy_j)
        aggregate.avg_current_a.observe(average_current_a)
        aggregate.current_histogram.observe(average_current_a)

    METRICS.counter("fleet.kernel.cohort_runs").inc()
    METRICS.counter("fleet.kernel.transmissions").inc(total_tx)
    METRICS.counter("fleet.kernel.demotions").inc(stats.demotions)
    METRICS.counter("fleet.kernel.promotions").inc(stats.promotions)
    return aggregate
