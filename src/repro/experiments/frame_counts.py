"""Experiment: §3.1 frame counts — the overhead Wi-LE deletes.

The paper: "At least 8 frames are exchanged during this [4-way
handshake] process. In addition to these 20 MAC-layer frames, 7
higher-layer frames including DHCP and ARP have to be transmitted before
a client device can transmit to the AP."

The reproduction runs the full association on the simulated stack and
counts what actually crossed the air, per phase, next to the Wi-LE
column: one beacon, zero everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy import calibration as cal
from ..mac.log import FrameLayer, FrameLog
from ..scenarios import run_wifi_dc, run_wile
from .report import render_table


@dataclass(frozen=True, slots=True)
class FrameCountReport:
    frame_log: FrameLog
    mac_frames: int
    higher_layer_frames: int
    eapol_phase_frames: int
    wile_frames: int
    paper_mac_frames: int = cal.PAPER_MAC_FRAME_COUNT
    paper_higher_frames: int = cal.PAPER_HIGHER_LAYER_FRAME_COUNT

    def render(self) -> str:
        per_phase_rows = []
        for phase in self.frame_log.phases():
            mac = self.frame_log.count(FrameLayer.MAC, phase)
            higher = self.frame_log.count(FrameLayer.HIGHER, phase)
            descriptions = ", ".join(
                entry.description for entry in self.frame_log.entries
                if entry.phase == phase)
            per_phase_rows.append([phase, str(mac), str(higher), descriptions])
        phase_table = render_table(
            "WiFi association frames by phase",
            ["phase", "MAC", "higher", "frames"],
            per_phase_rows)
        summary = render_table(
            "Frames before the first data byte (paper section 3.1)",
            ["metric", "ours", "paper"],
            [["MAC-layer frames", str(self.mac_frames),
              str(self.paper_mac_frames)],
             ["4-way handshake frames", str(self.eapol_phase_frames),
              "at least 8"],
             ["higher-layer frames (DHCP/ARP)", str(self.higher_layer_frames),
              str(self.paper_higher_frames)],
             ["Wi-LE frames for the same job", str(self.wile_frames), "1"]])
        return f"{phase_table}\n\n{summary}"


def run_frame_counts() -> FrameCountReport:
    wifi = run_wifi_dc()
    wile = run_wile()
    log = wifi.frame_log
    return FrameCountReport(
        frame_log=log,
        mac_frames=log.mac_frames,
        higher_layer_frames=log.higher_layer_frames,
        eapol_phase_frames=log.count(FrameLayer.MAC, "eapol"),
        wile_frames=1 if wile.details["frame_bytes"] else 0)
