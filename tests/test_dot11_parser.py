"""Tests for the wire-format parser's failure modes (repro.dot11.parser)."""

import dataclasses
import enum
from typing import get_args

import pytest

from repro.dot11 import (
    WILE_OUI,
    Ack,
    AssociationRequest,
    AssociationResponse,
    Authentication,
    Beacon,
    Country,
    DataFrame,
    DataSubtype,
    Deauthentication,
    Disassociation,
    DsssParameterSet,
    Element,
    Erp,
    ExtendedSupportedRates,
    HtCapabilities,
    MacAddress,
    ParsedFrame,
    ParseError,
    ProbeRequest,
    PsPoll,
    RawElement,
    Rsn,
    Ssid,
    SupportedRates,
    Tim,
    VendorSpecific,
    parse_frame,
)

AP = MacAddress.parse("f8:8f:ca:00:86:01")


def valid_beacon_bytes() -> bytes:
    return Beacon(source=AP, bssid=AP, elements=(Ssid.named("x"),)).to_bytes()


class TestFcsHandling:
    def test_bad_fcs_rejected(self):
        frame = bytearray(valid_beacon_bytes())
        frame[10] ^= 0xFF
        with pytest.raises(ParseError, match="FCS"):
            parse_frame(bytes(frame))

    def test_no_fcs_mode(self):
        frame = Beacon(source=AP, bssid=AP).to_bytes(with_fcs=False)
        parsed = parse_frame(frame, has_fcs=False)
        assert isinstance(parsed, Beacon)

    def test_empty_frame(self):
        with pytest.raises(ParseError):
            parse_frame(b"")


class TestTruncation:
    def test_truncated_management_header(self):
        frame = valid_beacon_bytes()
        with pytest.raises(ParseError):
            parse_frame(frame[:10], has_fcs=False)

    def test_truncated_beacon_fixed_fields(self):
        frame = valid_beacon_bytes()[:-4]  # drop FCS
        with pytest.raises(ParseError):
            parse_frame(frame[:28], has_fcs=False)

    def test_truncated_ack(self):
        ack = Ack(receiver=AP).to_bytes(with_fcs=False)
        with pytest.raises(ParseError):
            parse_frame(ack[:6], has_fcs=False)


class TestProtocolValidation:
    def test_unknown_protocol_version(self):
        frame = bytearray(valid_beacon_bytes()[:-4])
        frame[0] |= 0x03  # version bits
        with pytest.raises(ParseError, match="version"):
            parse_frame(bytes(frame), has_fcs=False)

    def test_unsupported_management_subtype(self):
        # ATIM (subtype 9) is not modelled.
        frame = bytearray(valid_beacon_bytes()[:-4])
        frame[0] = (frame[0] & 0x0F) | (9 << 4)
        with pytest.raises(ParseError):
            parse_frame(bytes(frame), has_fcs=False)

    def test_unsupported_control_subtype(self):
        # CTS frames are not used by this stack.
        cts = bytes([0xC4, 0x00, 0x00, 0x00]) + bytes(AP)
        with pytest.raises(ParseError):
            parse_frame(cts, has_fcs=False)

    def test_strict_elements_propagates(self):
        beacon = Beacon(source=AP, bssid=AP).to_bytes(with_fcs=False)
        mangled = beacon + bytes([0, 200])  # claims 200 bytes, has none
        with pytest.raises(Exception):
            parse_frame(mangled, has_fcs=False, strict_elements=True)
        # Lenient mode shrugs the bad tail off.
        parsed = parse_frame(mangled, has_fcs=False)
        assert isinstance(parsed, Beacon)


class TestParsedFramesAreDeeplyImmutable:
    """A radio shares one parsed frame between every delivery of its
    wire, which is safe only if nothing reachable from a frame can
    change: no list, dict, set or bytearray anywhere in its fields."""

    STA = MacAddress.parse("02:00:00:00:00:51")
    ELEMENTS = (Ssid.named("x"), SupportedRates((0x82, 0x84)),
                ExtendedSupportedRates((0x30, 0x48)), DsssParameterSet(6),
                Tim(0, 1, frozenset({1, 5}), True), Country(), Erp(),
                HtCapabilities(), Rsn(), VendorSpecific(WILE_OUI, 1, b"abc"),
                RawElement(200, b"xy"))

    def wires(self):
        ap, sta = AP, self.STA
        frames = (
            Beacon(source=ap, bssid=ap, elements=self.ELEMENTS),
            ProbeRequest(source=sta, elements=(Ssid.named("x"),)),
            Authentication(destination=ap, source=sta, bssid=ap),
            AssociationRequest(destination=ap, source=sta, bssid=ap,
                               elements=(Ssid.named("x"), Rsn())),
            AssociationResponse(destination=sta, source=ap, bssid=ap,
                                elements=(SupportedRates((0x82,)),)),
            Disassociation(destination=sta, source=ap, bssid=ap),
            Deauthentication(destination=sta, source=ap, bssid=ap),
            Ack(receiver=sta),
            PsPoll(bssid=ap, transmitter=sta, association_id=3),
            DataFrame(destination=ap, source=sta, bssid=ap,
                      payload=b"payload", to_ds=True),
            DataFrame(destination=sta, source=ap, bssid=ap, payload=b"q",
                      from_ds=True, subtype=DataSubtype.QOS_DATA))
        return [frame.to_bytes() for frame in frames]

    def assert_immutable(self, value, path, seen):
        if value is None or isinstance(value, (bytes, str, int, float,
                                               enum.Enum)):
            return
        if isinstance(value, (tuple, frozenset)):
            for index, item in enumerate(value):
                self.assert_immutable(item, f"{path}[{index}]", seen)
            return
        kind = type(value)
        assert dataclasses.is_dataclass(value), f"{path}: {kind.__name__}"
        assert kind.__dataclass_params__.frozen, f"{path}: {kind.__name__}"
        assert not hasattr(value, "__dict__"), f"{path}: {kind.__name__}"
        seen.add(kind)
        for field in dataclasses.fields(value):
            self.assert_immutable(getattr(value, field.name),
                                  f"{path}.{field.name}", seen)

    def test_every_frame_and_element_class(self):
        seen = set()
        for wire in self.wires():
            frame = parse_frame(wire)
            self.assert_immutable(frame, type(frame).__name__, seen)
        assert set(get_args(ParsedFrame)) <= seen
        assert set(get_args(Element)) <= seen

    @pytest.mark.parametrize("mutable", [[1], {1: 2}, {1}, bytearray(b"x")])
    def test_the_check_rejects_mutables(self, mutable):
        frame = RawElement(200, b"x")
        object.__setattr__(frame, "data", mutable)
        with pytest.raises(AssertionError):
            self.assert_immutable(frame, "frame", set())
