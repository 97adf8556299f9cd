"""Human-readable frame dumps, scapy's ``show()`` in miniature.

Used by examples and debugging sessions to see what is actually on the
air. Every frame type the stack produces gets a one-line summary and a
multi-line detail view with its elements decoded.

``import repro.dot11`` binds :func:`show` and so imports this module;
each function imports the frame and element classes it tests against,
so that import loads neither :mod:`.frames` nor every element class.
"""

from __future__ import annotations


def summarize(frame: object) -> str:
    """One line: type, addressing, and the interesting fields."""
    from .elements import Ssid, VendorSpecific
    from .frames import (Ack, AssociationRequest, AssociationResponse,
                         Authentication, Beacon, DataFrame,
                         Deauthentication, Disassociation, ProbeRequest,
                         PsPoll)
    if isinstance(frame, Beacon):
        ssid = next((element for element in frame.elements
                     if isinstance(element, Ssid)), None)
        name = ("<hidden>" if ssid is not None and ssid.is_hidden
                else (ssid.name.decode("utf-8", "replace") if ssid else "?"))
        vendor = any(isinstance(element, VendorSpecific)
                     for element in frame.elements)
        tag = " +vendor-ie" if vendor else ""
        return f"Beacon bssid={frame.bssid} ssid={name}{tag}"
    if isinstance(frame, ProbeRequest):
        return f"ProbeRequest {frame.source} -> {frame.destination}"
    if isinstance(frame, Authentication):
        return (f"Authentication {frame.source} -> {frame.destination} "
                f"seq={frame.transaction} status={frame.status.name}")
    if isinstance(frame, AssociationRequest):
        return f"AssocRequest {frame.source} -> {frame.destination}"
    if isinstance(frame, AssociationResponse):
        return (f"AssocResponse {frame.source} -> {frame.destination} "
                f"aid={frame.association_id} status={frame.status.name}")
    if isinstance(frame, Disassociation):
        return f"Disassociation reason={frame.reason.name}"
    if isinstance(frame, Deauthentication):
        return f"Deauthentication reason={frame.reason.name}"
    if isinstance(frame, Ack):
        return f"Ack -> {frame.receiver}"
    if isinstance(frame, PsPoll):
        return f"PS-Poll {frame.transmitter} aid={frame.association_id}"
    if isinstance(frame, DataFrame):
        direction = ("to-DS" if frame.to_ds
                     else "from-DS" if frame.from_ds else "direct")
        protection = " protected" if frame.protected else ""
        return (f"Data {frame.source} -> {frame.destination} [{direction}]"
                f"{protection} ({len(frame.payload)}B)")
    return f"{type(frame).__name__}"


def _element_lines(elements) -> list[str]:
    from .elements import (DsssParameterSet, Rsn, Ssid, SupportedRates, Tim,
                           VendorSpecific)
    lines = []
    for element in elements:
        if isinstance(element, Ssid):
            value = "<hidden>" if element.is_hidden else \
                element.name.decode("utf-8", "replace")
            lines.append(f"  SSID: {value}")
        elif isinstance(element, SupportedRates):
            rates = "/".join(f"{rate:g}" for rate in element.rates_mbps)
            lines.append(f"  Supported rates: {rates} Mbps")
        elif isinstance(element, DsssParameterSet):
            lines.append(f"  Channel: {element.channel}")
        elif isinstance(element, Tim):
            lines.append(f"  TIM: dtim {element.dtim_count}/{element.dtim_period}"
                         f" buffered-aids={sorted(element.buffered_aids)}")
        elif isinstance(element, Rsn):
            lines.append(f"  RSN: {len(element.pairwise_ciphers)} pairwise, "
                         f"{len(element.akm_suites)} AKM")
        elif isinstance(element, VendorSpecific):
            lines.append(f"  Vendor IE: oui={element.oui.hex()} "
                         f"type={element.vendor_type:#04x} "
                         f"({len(element.data)}B)")
        else:
            lines.append(f"  {type(element).__name__}")
    return lines


def show(frame: object) -> str:
    """Multi-line detail view; returns the text (and never prints)."""
    from .frames import (AssociationRequest, AssociationResponse, Beacon,
                         DataFrame, ProbeRequest)
    lines = [summarize(frame)]
    if isinstance(frame, Beacon):
        lines.append(f"  interval: {frame.beacon_interval_tu} TU, "
                     f"timestamp: {frame.timestamp_us} us")
        lines.extend(_element_lines(frame.elements))
    elif isinstance(frame, (ProbeRequest, AssociationRequest,
                            AssociationResponse)):
        lines.extend(_element_lines(frame.elements))
    elif isinstance(frame, DataFrame) and frame.payload[:6] == b"\xaa\xaa\x03\x00\x00\x00":
        ethertype = int.from_bytes(frame.payload[6:8], "big")
        names = {0x0800: "IPv4", 0x0806: "ARP", 0x888E: "EAPOL"}
        lines.append(f"  LLC/SNAP ethertype: {names.get(ethertype, hex(ethertype))}")
    return "\n".join(lines)
