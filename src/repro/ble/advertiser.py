"""BLE connection events on the simulation clock.

The paper's BLE baseline (§5.3) is a slave that "periodically transmits
a data packet to another BLE device which is in the master mode" and
deep-sleeps in between. This module models that link-layer timing: the
slave's connection events, anchored by the master and subject to the
slave's sleep-clock accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim import JitteryClock, Simulator
from .airtime import T_IFS_US, pdu_airtime_us
from .packets import DataLlid, DataPdu


@dataclass
class ConnectionEventRecord:
    """One master-anchored connection event exchanged by the slave."""

    time_s: float
    master_pdu: DataPdu
    slave_pdu: DataPdu
    duration_s: float


class BleConnection:
    """The slave side of an established LE connection.

    The master transmits at each anchor point; the slave wakes (per its
    slave latency setting), receives, and responds T_IFS later — the
    exchange whose measured energy the paper's Table 1 reports as 71 uJ.
    """

    def __init__(self, sim: Simulator, connection_interval_s: float = 1.0,
                 slave_latency: int = 0,
                 clock: JitteryClock | None = None) -> None:
        if connection_interval_s < 7.5e-3:
            raise ValueError("LE connection interval minimum is 7.5 ms")
        if slave_latency < 0:
            raise ValueError("negative slave latency")
        self.sim = sim
        self.connection_interval_s = connection_interval_s
        self.slave_latency = slave_latency
        self.clock = clock if clock is not None else JitteryClock()
        self.records: list[ConnectionEventRecord] = []
        self.on_event: Callable[[ConnectionEventRecord], None] | None = None
        self._tx_queue: list[bytes] = []
        self._event_counter = 0
        self._sn = 0
        self._running = False

    def queue_payload(self, payload: bytes) -> None:
        """Data the slave sends at its next attended connection event."""
        self._tx_queue.append(payload)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        self.sim.schedule(
            self.clock.actual_interval_s(self.connection_interval_s),
            self._anchor_point)

    def _anchor_point(self) -> None:
        if not self._running:
            return
        self._event_counter += 1
        attend = (self._tx_queue
                  or self.slave_latency == 0
                  or self._event_counter % (self.slave_latency + 1) == 0)
        if attend:
            self._run_event()
        self._schedule_next()

    def _run_event(self) -> None:
        master_pdu = DataPdu(DataLlid.CONTINUATION, b"", nesn=self._sn ^ 1,
                             sn=self._sn)
        payload = self._tx_queue.pop(0) if self._tx_queue else b""
        slave_pdu = DataPdu(DataLlid.START if payload else DataLlid.CONTINUATION,
                            payload, nesn=self._sn ^ 1, sn=self._sn)
        self._sn ^= 1
        duration_us = (pdu_airtime_us(master_pdu.to_bytes()) + T_IFS_US
                       + pdu_airtime_us(slave_pdu.to_bytes()))
        record = ConnectionEventRecord(self.sim.now_s, master_pdu, slave_pdu,
                                       duration_us / 1e6)
        self.records.append(record)
        if self.on_event is not None:
            self.on_event(record)
