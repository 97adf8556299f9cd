"""Deserialisation of 802.11 wire-format frames back into typed objects.

The Wi-LE receiver operates in monitor mode: it sees raw frames and must
pick beacon frames out of the stream, so this parser is the front half of
the receive path. It also closes the loop for round-trip tests against
:mod:`repro.dot11.frames`.
"""

from __future__ import annotations

import struct

from .elements import parse_elements
from .fcs import check_fcs
from .frames import (
    Ack,
    AssociationRequest,
    AssociationResponse,
    AuthAlgorithm,
    Authentication,
    Beacon,
    CapabilityInfo,
    ControlSubtype,
    DataFrame,
    DataSubtype,
    Deauthentication,
    Disassociation,
    FrameControl,
    FrameType,
    ManagementSubtype,
    ProbeRequest,
    PsPoll,
    ReasonCode,
    StatusCode,
)
from .mac import MacAddress

ParsedFrame = (
    Beacon | ProbeRequest | Authentication | AssociationRequest
    | AssociationResponse | Disassociation | Deauthentication
    | Ack | PsPoll | DataFrame
)


class ParseError(ValueError):
    """Raised when a frame cannot be parsed (truncated, bad FCS, ...)."""


def _require(data: bytes, length: int, what: str) -> None:
    if len(data) < length:
        raise ParseError(f"frame too short for {what}: {len(data)} < {length}")


def _mac(data: bytes, offset: int) -> MacAddress:
    return MacAddress(data[offset:offset + 6])


def parse_frame(data: bytes, has_fcs: bool = True, strict_elements: bool = False) -> ParsedFrame:
    """Parse a single over-the-air frame.

    With ``has_fcs`` (the default for frames leaving the simulated radio)
    the trailing CRC is validated and stripped; a bad FCS raises
    :class:`ParseError`, which is exactly what a real NIC does — it drops
    the frame. Any malformed content — reserved type bits, out-of-range
    enum values, truncated fields — also surfaces as :class:`ParseError`
    and nothing else: a parser that can be crashed by RF garbage is a
    vulnerability.
    """
    try:
        return _parse_frame(data, has_fcs, strict_elements)
    except ParseError:
        raise
    except (ValueError, struct.error) as error:
        raise ParseError(f"malformed frame: {error}") from error


def _parse_frame(data: bytes, has_fcs: bool, strict_elements: bool) -> ParsedFrame:
    if has_fcs:
        if not check_fcs(data):
            raise ParseError("bad FCS")
        data = data[:-4]
    _require(data, 2, "frame control")
    fc = FrameControl.from_int(int.from_bytes(data[:2], "little"))
    if fc.protocol_version != 0:
        raise ParseError(f"unknown 802.11 protocol version {fc.protocol_version}")
    if fc.ftype is FrameType.MANAGEMENT:
        return _parse_management(fc, data, strict_elements)
    if fc.ftype is FrameType.CONTROL:
        return _parse_control(fc, data)
    if fc.ftype is FrameType.DATA:
        return _parse_data(fc, data)
    raise ParseError(f"unsupported frame type {fc.ftype}")


def _parse_management(fc: FrameControl, data: bytes, strict_elements: bool) -> ParsedFrame:
    _require(data, 24, "management header")
    duration = int.from_bytes(data[2:4], "little")
    dest, src, bssid = _mac(data, 4), _mac(data, 10), _mac(data, 16)
    sequence = int.from_bytes(data[22:24], "little") >> 4
    body = data[24:]
    try:
        subtype = ManagementSubtype(fc.subtype)
    except ValueError:
        raise ParseError(
            f"unsupported management subtype {fc.subtype}") from None

    if subtype in (ManagementSubtype.BEACON, ManagementSubtype.PROBE_RESPONSE):
        _require(body, 12, "beacon fixed fields")
        timestamp, interval, caps = struct.unpack("<QHH", body[:12])
        elements = tuple(parse_elements(body[12:], strict=strict_elements))
        return Beacon(source=src, bssid=bssid, timestamp_us=timestamp,
                      beacon_interval_tu=interval,
                      capabilities=CapabilityInfo.from_int(caps),
                      elements=elements, destination=dest, sequence=sequence)

    if subtype is ManagementSubtype.PROBE_REQUEST:
        elements = tuple(parse_elements(body, strict=strict_elements))
        return ProbeRequest(source=src, elements=elements, destination=dest,
                            sequence=sequence)

    if subtype is ManagementSubtype.AUTHENTICATION:
        _require(body, 6, "authentication body")
        algorithm, transaction, status = struct.unpack("<HHH", body[:6])
        return Authentication(destination=dest, source=src, bssid=bssid,
                              algorithm=AuthAlgorithm(algorithm),
                              transaction=transaction,
                              status=StatusCode(status), sequence=sequence)

    if subtype is ManagementSubtype.ASSOCIATION_REQUEST:
        _require(body, 4, "association request body")
        caps, listen_interval = struct.unpack("<HH", body[:4])
        elements = tuple(parse_elements(body[4:], strict=strict_elements))
        return AssociationRequest(destination=dest, source=src, bssid=bssid,
                                  capabilities=CapabilityInfo.from_int(caps),
                                  listen_interval=listen_interval,
                                  elements=elements, sequence=sequence)

    if subtype is ManagementSubtype.ASSOCIATION_RESPONSE:
        _require(body, 6, "association response body")
        caps, status, aid = struct.unpack("<HHH", body[:6])
        elements = tuple(parse_elements(body[6:], strict=strict_elements))
        return AssociationResponse(destination=dest, source=src, bssid=bssid,
                                   status=StatusCode(status),
                                   association_id=aid & 0x3FFF,
                                   capabilities=CapabilityInfo.from_int(caps),
                                   elements=elements, sequence=sequence)

    if subtype is ManagementSubtype.DISASSOCIATION:
        _require(body, 2, "disassociation body")
        return Disassociation(destination=dest, source=src, bssid=bssid,
                              reason=ReasonCode(int.from_bytes(body[:2], "little")),
                              sequence=sequence)

    if subtype is ManagementSubtype.DEAUTHENTICATION:
        _require(body, 2, "deauthentication body")
        return Deauthentication(destination=dest, source=src, bssid=bssid,
                                reason=ReasonCode(int.from_bytes(body[:2], "little")),
                                sequence=sequence)

    raise ParseError(f"unsupported management subtype {fc.subtype}")


def _parse_control(fc: FrameControl, data: bytes) -> ParsedFrame:
    try:
        subtype = ControlSubtype(fc.subtype)
    except ValueError:
        raise ParseError(f"unsupported control subtype {fc.subtype}") from None
    if subtype is ControlSubtype.ACK:
        _require(data, 10, "ACK frame")
        return Ack(receiver=_mac(data, 4),
                   duration_us=int.from_bytes(data[2:4], "little"))
    if subtype is ControlSubtype.PS_POLL:
        _require(data, 16, "PS-Poll frame")
        aid = int.from_bytes(data[2:4], "little") & 0x3FFF
        return PsPoll(bssid=_mac(data, 4), transmitter=_mac(data, 10),
                      association_id=aid)
    raise ParseError(f"unsupported control subtype {fc.subtype}")


def _parse_data(fc: FrameControl, data: bytes) -> DataFrame:
    _require(data, 24, "data header")
    duration = int.from_bytes(data[2:4], "little")
    addr1, addr2, addr3 = _mac(data, 4), _mac(data, 10), _mac(data, 16)
    sequence = int.from_bytes(data[22:24], "little") >> 4
    offset = 24
    try:
        subtype = DataSubtype(fc.subtype)
    except ValueError:
        raise ParseError(f"unsupported data subtype {fc.subtype}") from None
    if subtype in (DataSubtype.QOS_DATA, DataSubtype.QOS_NULL):
        _require(data, 26, "QoS control")
        offset = 26
    payload = data[offset:]

    if fc.to_ds and not fc.from_ds:
        bssid, source, destination = addr1, addr2, addr3
    elif fc.from_ds and not fc.to_ds:
        destination, bssid, source = addr1, addr2, addr3
    elif not fc.to_ds and not fc.from_ds:
        destination, source, bssid = addr1, addr2, addr3
    else:
        raise ParseError("WDS data frames are not supported")

    return DataFrame(destination=destination, source=source, bssid=bssid,
                     payload=payload, to_ds=fc.to_ds, from_ds=fc.from_ds,
                     subtype=subtype, sequence=sequence, protected=fc.protected,
                     power_management=fc.power_management,
                     more_data=fc.more_data, duration_us=duration)
