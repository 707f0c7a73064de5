"""Tests for NMEA AIVDM framing and checksums."""

import pytest
from hypothesis import given, strategies as st

from repro.ais.messages import PositionReport, encode_position_report
from repro.ais.nmea import (
    ChecksumError,
    NmeaFormatError,
    nmea_checksum,
    unwrap_aivdm,
    wrap_aivdm,
)
from repro.ais.scanner import DataScanner

payload_chars = st.text(
    alphabet=[chr(c) for c in range(48, 88)] + [chr(c) for c in range(96, 120)],
    min_size=1,
    max_size=60,
)


class TestChecksum:
    def test_known_checksum(self):
        # XOR of the characters of "AIVDM" = 0x41^0x49^0x56^0x44^0x4D.
        expected = 0x41 ^ 0x49 ^ 0x56 ^ 0x44 ^ 0x4D
        assert nmea_checksum("AIVDM") == f"{expected:02X}"

    def test_empty_body(self):
        assert nmea_checksum("") == "00"


class TestWrapUnwrap:
    def test_round_trip(self):
        sentence = wrap_aivdm("13u?etPv2;0n:dDPwUM1U1Cb069D", 0)
        parsed = unwrap_aivdm(sentence)
        assert parsed.payload == "13u?etPv2;0n:dDPwUM1U1Cb069D"
        assert parsed.fill_bits == 0
        assert parsed.channel == "A"

    def test_channel_preserved(self):
        parsed = unwrap_aivdm(wrap_aivdm("0000", 2, channel="B"))
        assert parsed.channel == "B"
        assert parsed.fill_bits == 2

    @given(payload=payload_chars, fill=st.integers(min_value=0, max_value=5))
    def test_round_trip_property(self, payload, fill):
        parsed = unwrap_aivdm(wrap_aivdm(payload, fill))
        assert parsed.payload == payload
        assert parsed.fill_bits == fill

    def test_whitespace_tolerated(self):
        sentence = wrap_aivdm("0000", 0)
        assert unwrap_aivdm(f"  {sentence}\r\n").payload == "0000"


class TestRejection:
    def test_corrupted_payload_fails_checksum(self):
        sentence = wrap_aivdm("13u?etPv2;0n:dDPwUM1U1Cb069D", 0)
        corrupted = sentence.replace("etPv", "etPw", 1)
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            unwrap_aivdm(corrupted)

    def test_wrong_declared_checksum(self):
        sentence = wrap_aivdm("0000", 0)
        body, _, _ = sentence.rpartition("*")
        with pytest.raises(ChecksumError):
            unwrap_aivdm(body + "*FF")

    def test_missing_bang(self):
        with pytest.raises(NmeaFormatError, match="start with"):
            unwrap_aivdm("AIVDM,1,1,,A,0000,0*00")

    def test_missing_checksum_suffix(self):
        with pytest.raises(NmeaFormatError, match="checksum suffix"):
            unwrap_aivdm("!AIVDM,1,1,,A,0000,0")

    def test_wrong_talker(self):
        body = "GPGGA,1,1,,A,0000,0"
        with pytest.raises(NmeaFormatError, match="not an AIVDM"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_wrong_field_count(self):
        body = "AIVDM,1,1,,A,0000"
        with pytest.raises(NmeaFormatError):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_multi_fragment_parses_framing(self):
        body = "AIVDM,2,1,5,A,0000,0"
        parsed = unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")
        assert parsed.is_fragmented
        assert parsed.fragment_count == 2
        assert parsed.fragment_number == 1
        assert parsed.message_id == "5"

    def test_inconsistent_fragment_framing_rejected(self):
        body = "AIVDM,2,3,5,A,0000,0"
        with pytest.raises(NmeaFormatError, match="inconsistent fragment"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_non_numeric_framing(self):
        body = "AIVDM,x,1,,A,0000,0"
        with pytest.raises(NmeaFormatError, match="non-numeric"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")

    def test_empty_payload(self):
        body = "AIVDM,1,1,,A,,0"
        with pytest.raises(NmeaFormatError, match="empty payload"):
            unwrap_aivdm(f"!{body}*{nmea_checksum(body)}")


def framed(count: str, number: str, fill: str) -> str:
    """A type-1 report framed with the given raw framing fields."""
    payload, _ = encode_position_report(
        PositionReport(1, 239_000_001, 23.6, 37.9, 10.0, 90.0, 0)
    )
    body = f"AIVDM,{count},{number},,A,{payload},{fill}"
    return f"!{body}*{nmea_checksum(body)}"


class TestNumericFraming:
    """Framing fields are plain ASCII digits; fill bits one digit 0-5."""

    @pytest.mark.parametrize("fill", ["-1", "-6", "+0", " 0", "9", "6", "00", "", "x"])
    def test_bad_fill_bits_rejected(self, fill):
        with pytest.raises(NmeaFormatError, match="fill bits"):
            unwrap_aivdm(framed("1", "1", fill))

    @pytest.mark.parametrize(
        ("count", "number"),
        # Two Arabic-Indic ones (U+0661) are 11 to int(); their code
        # points cancel in the XOR, so the checksum still frames them.
        [
            ("+1", "1"),
            ("1", "+1"),
            (" 1", "1"),
            ("1", "1 "),
            ("\u0661\u0661", "1"),
            ("\u00b2", "1"),
        ],
    )
    def test_signed_or_non_ascii_fragment_fields_rejected(self, count, number):
        with pytest.raises(NmeaFormatError, match="non-numeric"):
            unwrap_aivdm(framed(count, number, "0"))

    @pytest.mark.parametrize(
        ("count", "number"),
        [
            pytest.param("1" * 5000, "1", id="5000-digit-count"),
            pytest.param("1", "1" * 5000, id="5000-digit-number"),
        ],
    )
    def test_oversized_fragment_fields_rejected(self, count, number):
        # More digits than int() converts: a plain ValueError would escape
        # the scanner, which counts only NMEA errors as bad framing.
        with pytest.raises(NmeaFormatError, match="too many digits"):
            unwrap_aivdm(framed(count, number, "0"))

    @pytest.mark.parametrize("fill", ["0", "1", "2", "3", "4", "5"])
    def test_fill_digits_zero_to_five_accepted(self, fill):
        assert unwrap_aivdm(framed("1", "1", fill)).fill_bits == int(fill)

    @pytest.mark.parametrize(
        ("count", "number", "fill"),
        [
            ("1", "1", "-1"),
            ("1", "1", "-6"),
            ("1", "1", "+0"),
            ("1", "1", " 0"),
            ("1", "1", "9"),
            ("+1", "1", "0"),
            pytest.param("1" * 5000, "1", "0", id="5000-digit-count"),
            pytest.param("1", "1" * 5000, "0", id="5000-digit-number"),
        ],
    )
    def test_scanner_counts_bad_framing_as_bad_format(self, count, number, fill):
        scanner = DataScanner()
        assert scanner.scan(0, framed(count, number, fill)) is None
        assert scanner.statistics.bad_format == 1
        assert scanner.last_rejection == "bad_format"
