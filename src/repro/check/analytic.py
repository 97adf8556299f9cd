"""Analytic oracles: simulated behaviour vs closed-form ground truth.

Where the differential oracles need a second implementation, these
need none — the ground truth is a published formula or conformance
vector: Eq. 1 of the paper (verified against exact trace integration),
the 802.11 DCF slotted-access analysis (exact per-seed timelines, the
idle-channel mean, and the freeze-and-resume timeline across a busy
period — the oracle that would have caught the backoff-redraw bug),
and the RFC 1071 / CRC-24 / IEEE CRC-32 conformance vectors.
"""

from __future__ import annotations

import random
import zlib

from ..ble.crc24 import ADVERTISING_CRC_INIT, append_crc, check_crc, crc24
from ..dot11 import Beacon, MacAddress, Ssid
from ..dot11.airtime import DIFS_US, SLOT_US, frame_airtime_us
from ..dot11.fcs import append_fcs, check_fcs, crc32_reference
from ..dot11.rates import OFDM_6, OFDM_24
from ..energy.average import DutyCycleProfile
from ..energy.trace import CurrentTrace
from ..mac.csma import CW_MIN, CsmaTransmitter
from ..netproto.checksum import internet_checksum, verify_checksum
from ..sim import Position, Radio, Simulator, WirelessMedium
from . import Deviation, oracle

_MAC_TX = MacAddress.parse("02:0c:0c:0c:0c:01")
_MAC_BLOCKER = MacAddress.parse("02:0c:0c:0c:0c:02")


def _check_beacon(source: MacAddress = _MAC_TX) -> Beacon:
    return Beacon(source=source, bssid=source,
                  elements=(Ssid.named("chk"),))


def _idle_access_delay(seed: int) -> float:
    """Access delay of one CSMA enqueue on a perfectly idle channel.

    Module-level and picklable — the runner-determinism differential
    fans it over a process pool.
    """
    sim = Simulator()
    medium = WirelessMedium(sim)
    radio = Radio(sim, medium, _MAC_TX, position=Position(0.0, 0.0),
                  default_power_dbm=20.0)
    radio.power_on()
    transmitter = CsmaTransmitter(sim, radio, seed=seed)
    delays: list[float] = []
    transmitter.enqueue(_check_beacon(), OFDM_24,
                        on_sent=lambda _tx, delay: delays.append(delay))
    sim.run()
    return delays[0]


@oracle("dcf-idle-access-exact", "analytic",
        "idle-channel access delay is exactly DIFS + k*slot for the "
        "seed's known backoff draw k")
def check_dcf_idle_exact() -> Deviation:
    worst = 0.0
    for seed in range(64):
        expected_slots = random.Random(seed).randint(0, CW_MIN)
        expected = (DIFS_US + expected_slots * SLOT_US) / 1e6
        worst = max(worst, abs(_idle_access_delay(seed) - expected))
    return Deviation(max_deviation=worst, tolerance=1e-9, unit="s",
                     detail="64 seeds, exact slotted timeline")


@oracle("dcf-idle-mean-analytic", "analytic",
        "mean idle-channel access delay matches the DCF analysis "
        "DIFS + CW_min/2 * slot")
def check_dcf_idle_mean() -> Deviation:
    count = 200
    mean = sum(_idle_access_delay(seed) for seed in range(count)) / count
    analytic = (DIFS_US + CW_MIN / 2.0 * SLOT_US) / 1e6
    # Backoff is uniform on {0..CW_min}: std = slot*sqrt(((CW+1)^2-1)/12);
    # allow four standard errors around the analytic mean.
    slot_std = ((CW_MIN + 1) ** 2 - 1) / 12.0
    tolerance = 4.0 * SLOT_US / 1e6 * (slot_std / count) ** 0.5
    return Deviation(max_deviation=abs(mean - analytic),
                     tolerance=tolerance, unit="s",
                     detail=f"mean {mean * 1e6:.2f} us vs analytic "
                            f"{analytic * 1e6:.2f} us over {count} seeds")


#: Seed for the freeze-resume timeline. Chosen so the backoff draw is
#: large enough to interrupt mid-countdown AND so the *old* (redraw +
#: widen) semantics would land at a visibly different instant — this
#: oracle fails against the pre-fix DCF implementation.
_FREEZE_SEED = 11


@oracle("dcf-busy-freeze-resume", "analytic",
        "a busy period freezes the backoff counter: the transmission "
        "fires at the exact analytic resume instant (no redraw, no CW "
        "widening)")
def check_dcf_freeze_resume() -> Deviation:
    sim = Simulator()
    medium = WirelessMedium(sim)
    radio = Radio(sim, medium, _MAC_TX, position=Position(0.0, 0.0),
                  default_power_dbm=20.0)
    blocker = Radio(sim, medium, _MAC_BLOCKER, position=Position(0.0, 1.0),
                    default_power_dbm=20.0)
    radio.power_on()
    blocker.power_on()
    transmitter = CsmaTransmitter(sim, radio, seed=_FREEZE_SEED)
    drawn = random.Random(_FREEZE_SEED).randint(0, CW_MIN)
    assert drawn >= 2, "freeze seed must interrupt mid-countdown"
    completed = drawn // 2  # slots decremented before the interruption
    busy_at = (DIFS_US + (completed + 0.5) * SLOT_US) / 1e6
    blocker_frame = _check_beacon(_MAC_BLOCKER)
    busy_airtime = frame_airtime_us(len(blocker_frame.to_bytes()),
                                    OFDM_6) / 1e6
    sim.at(busy_at, lambda: blocker.transmit(blocker_frame, OFDM_6))

    sent: list[float] = []
    transmitter.enqueue(_check_beacon(), OFDM_24,
                        on_sent=lambda _tx, _delay: sent.append(sim.now_s))
    sim.run()
    # Freeze-and-resume: the counter froze at drawn-completed-1 slots
    # (the boundary that sensed busy does not decrement), then waited
    # the busy period out, a fresh DIFS, and the remaining slots.
    remaining = drawn - completed - 1
    expected = (busy_at + busy_airtime + 1e-9
                + (DIFS_US + remaining * SLOT_US) / 1e6)
    deviation = abs(sent[0] - expected) if sent else float("inf")
    return Deviation(max_deviation=deviation, tolerance=1e-9, unit="s",
                     detail=f"drew {drawn} slots, froze at {remaining}, "
                            f"fired {sent[0] * 1e6:.2f} us vs expected "
                            f"{expected * 1e6:.2f} us" if sent
                     else "beacon never transmitted")


def _profile_vs_trace(profile: DutyCycleProfile,
                      intervals_s: tuple[float, ...]) -> float:
    """Worst relative error of Eq. 1 vs exact one-cycle trace integral."""
    worst = 0.0
    for interval_s in intervals_s:
        if interval_s <= profile.t_tx_s:
            continue
        trace = CurrentTrace()
        trace.append(profile.t_tx_s,
                     profile.p_tx_w / profile.supply_voltage_v, "tx")
        trace.append(interval_s - profile.t_tx_s,
                     profile.idle_current_a, "idle")
        from_trace = trace.average_current_a() * profile.supply_voltage_v
        closed_form = profile.average_power_w(interval_s)
        worst = max(worst, abs(from_trace - closed_form)
                    / max(closed_form, 1e-30))
    return worst


_EQ1_INTERVALS = (1.0, 10.0, 60.0, 300.0)


@oracle("eq1-closed-form-vs-trace", "analytic",
        "Eq. 1's closed form equals exact integration of the duty-cycle "
        "current trace, for scenario-derived profiles")
def check_eq1() -> Deviation:
    from ..scenarios import run_ble, run_wile
    worst = 0.0
    names = []
    for result in (run_wile(), run_ble()):
        worst = max(worst, _profile_vs_trace(result.profile(),
                                             _EQ1_INTERVALS))
        names.append(result.name)
    return Deviation(max_deviation=worst, tolerance=1e-12,
                     unit="relative",
                     detail=f"profiles {names}, intervals {_EQ1_INTERVALS}")


@oracle("eq1-all-scenarios", "analytic",
        "Eq. 1 vs trace integration across every scenario profile",
        smoke=False)
def check_eq1_full() -> Deviation:
    from ..scenarios import run_all_scenarios
    worst = 0.0
    results = run_all_scenarios()
    for result in results.values():
        worst = max(worst, _profile_vs_trace(result.profile(),
                                             _EQ1_INTERVALS + (3600.0,)))
    return Deviation(max_deviation=worst, tolerance=1e-12, unit="relative",
                     detail=f"all {len(results)} scenarios")


def _independent_checksum(data: bytes) -> int:
    """RFC 1071 checksum via modular arithmetic instead of carry folding."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(int.from_bytes(data[offset:offset + 2], "big")
                for offset in range(0, len(data), 2))
    if total:
        total = total % 0xFFFF or 0xFFFF
    return ~total & 0xFFFF


@oracle("checksum-rfc1071", "analytic",
        "internet checksum reproduces the RFC 1071 worked example and "
        "an independent modular-arithmetic implementation")
def check_rfc1071() -> Deviation:
    mismatches = 0
    # RFC 1071 §3 worked example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to
    # 0xddf2, so the checksum is its one's complement 0x220d.
    example = bytes.fromhex("0001f203f4f5f6f7")
    mismatches += internet_checksum(example) != 0x220D
    mismatches += not verify_checksum(example + (0x220D).to_bytes(2, "big"))
    rng = random.Random(1071)
    trials = 2
    for _ in range(32):
        data = rng.randbytes(rng.randrange(0, 41))
        trials += 2
        checksum = internet_checksum(data)
        mismatches += checksum != _independent_checksum(data)
        mismatches += not verify_checksum(data + checksum.to_bytes(2, "big")) \
            if len(data) % 2 == 0 else 0
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail=f"{trials} comparisons")


def _crc24_table() -> tuple[int, ...]:
    """256-entry table for the BLE CRC's documented convention (data
    bits LSB-first into a left-shifting LFSR, poly 0x00065B)."""
    table = []
    for byte in range(256):
        lfsr = 0
        for bit in range(8):
            feedback = ((lfsr >> 23) & 1) ^ ((byte >> bit) & 1)
            lfsr = (lfsr << 1) & 0xFFFFFF
            if feedback:
                lfsr ^= 0x00065B
        table.append(lfsr)
    return tuple(table)


_CRC24_TABLE = _crc24_table()


def _crc24_tabled(data: bytes, crc_init: int = ADVERTISING_CRC_INIT) -> int:
    """Independent table-driven CRC-24 (one lookup per byte)."""
    lfsr = crc_init
    for byte in data:
        index = byte ^ int(f"{(lfsr >> 16) & 0xFF:08b}"[::-1], 2)
        lfsr = ((lfsr << 8) & 0xFFFFFF) ^ _CRC24_TABLE[index]
    return lfsr


@oracle("crc24-ble-conformance", "analytic",
        "bit-serial BLE CRC-24 agrees with an independent table-driven "
        "implementation, round-trips, and is GF(2)-affine")
def check_crc24() -> Deviation:
    mismatches = 0
    rng = random.Random(24)
    trials = 0
    for _ in range(48):
        pdu = rng.randbytes(rng.randrange(0, 40))
        trials += 3
        mismatches += crc24(pdu) != _crc24_tabled(pdu)
        mismatches += not check_crc(append_crc(pdu))
        # CRC is affine over GF(2): crc(a^b) = crc(a)^crc(b)^crc(0..0).
        other = rng.randbytes(len(pdu))
        xored = bytes(x ^ y for x, y in zip(pdu, other))
        mismatches += crc24(xored) != (crc24(pdu) ^ crc24(other)
                                       ^ crc24(bytes(len(pdu))))
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail=f"{trials} comparisons")


@oracle("fcs-vs-zlib", "analytic",
        "the 802.11 FCS CRC-32 matches zlib.crc32 and the standard "
        "check value for '123456789'")
def check_fcs_zlib() -> Deviation:
    mismatches = 0
    # The universal CRC-32/IEEE check value.
    mismatches += crc32_reference(b"123456789") != 0xCBF43926
    rng = random.Random(32)
    trials = 1
    for _ in range(48):
        frame = rng.randbytes(rng.randrange(0, 200))
        trials += 2
        mismatches += crc32_reference(frame) != zlib.crc32(frame)
        mismatches += not check_fcs(append_fcs(frame))
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail=f"{trials} comparisons")
