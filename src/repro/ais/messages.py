"""Binary layout of the AIS message types consumed by the system.

The paper considers AIS messages of types 1, 2, 3 (Class A position reports),
18 and 19 (Class B position reports) — Section 2.  This module encodes and
decodes those layouts per ITU-R M.1371: positions in 1/10000 arc-minute,
speed over ground in 1/10 knot, course over ground in 1/10 degree.

Only the fields the surveillance system uses (MMSI, longitude, latitude, plus
speed/course metadata useful for validation) are surfaced; remaining layout
bits are encoded as defaults and skipped on decode, keeping the wire format
faithful so that corrupt-message tests exercise realistic payloads.

The codec works on one Python ``int`` per payload.  AIVDM payloads armor
each group of 6 bits as one printable character (values below 40 map to
ASCII 48..87, the rest to 96..119).  :func:`unarmor` translates every
character to its value as two octal digits and parses the result with
``int(..., 8)``; each field is then one shift and one mask.  The encoder
packs the fields into one ``int`` and :func:`armor` cuts it back into
characters, 6 bits at a time.
"""

from typing import NamedTuple

#: Message types carrying position reports that the Data Scanner accepts.
POSITION_REPORT_TYPES = frozenset({1, 2, 3, 18, 19})

#: Sentinel "not available" values from the AIS specification.
LON_NOT_AVAILABLE = 181.0
LAT_NOT_AVAILABLE = 91.0
SPEED_NOT_AVAILABLE = 102.3
COURSE_NOT_AVAILABLE = 360.0

_LON_SCALE = 600_000  # 1/10000 arc-minute
_LAT_SCALE = 600_000

#: The armor table: character ``_CHARS[v]`` carries the 6-bit value ``v``.
_CHARS = "".join(chr(v + 48 if v < 40 else v + 56) for v in range(64))
#: Armor character -> its 6-bit value as two octal digits.  A character
#: outside the table is left as it is, one character long, so a payload
#: is well armored exactly when its translation is twice as long.  The
#: length check is what rejects bad characters: ``int(..., 8)`` alone
#: would accept ``_`` separators, whitespace and non-ASCII digits.
_TO_OCTAL = str.maketrans({char: f"{value:02o}" for value, char in enumerate(_CHARS)})

#: Bits a payload needs for its fields to decode, up to the last field
#: read (the second of minute); later fields are not read.  Class A:
#: type 6, repeat 2, MMSI 30, status 4, rate of turn 8, then the tail.
#: Class B: type 6, repeat 2, MMSI 30, reserved 8, then the tail.  The
#: tail: speed 10, accuracy 1, lon 28, lat 27, course 12, heading 9,
#: second 6.
_CLASS_A_BITS = 143
_CLASS_B_BITS = 139


class PositionReport(NamedTuple):
    """Decoded AIS position report (any of types 1, 2, 3, 18, 19)."""

    message_type: int
    mmsi: int
    lon: float
    lat: float
    speed_knots: float
    course_degrees: float
    second_of_minute: int

    def has_valid_position(self) -> bool:
        """Whether lon/lat carry an actual fix (not the sentinel values)."""
        return (
            -180.0 <= self.lon <= 180.0
            and -90.0 <= self.lat <= 90.0
        )


def armor(value: int, nbits: int) -> tuple[str, int]:
    """Armor the ``nbits``-bit big-endian ``value`` into a payload string.

    Returns ``(payload, fill_bits)`` where ``fill_bits`` is the number of
    padding zero bits appended to reach a multiple of six (reported in the
    AIVDM sentence so the decoder can strip them).
    """
    fill = -nbits % 6
    value <<= fill
    payload = "".join(
        [_CHARS[(value >> shift) & 63] for shift in range(nbits + fill - 6, -1, -6)]
    )
    return payload, fill


def unarmor(payload: str, fill_bits: int = 0) -> tuple[int, int]:
    """Strip the 6-bit armor: ``(value, nbits)``, bits big-endian in ``value``.

    The last ``fill_bits`` bits are dropped; a fill of zero or less drops
    nothing.  Raises ``ValueError`` on a character outside the armor table
    and on a fill longer than the payload.
    """
    octal = payload.translate(_TO_OCTAL)
    if len(octal) != 2 * len(payload):
        bad = next(char for char in payload if char not in _CHARS)
        raise ValueError(f"invalid 6-bit ASCII character: {bad!r}")
    nbits = 6 * len(payload)
    value = int(octal, 8) if payload else 0
    if fill_bits > 0:
        if fill_bits > nbits:
            raise ValueError("fill_bits exceeds payload length")
        value >>= fill_bits
        nbits -= fill_bits
    return value, nbits


def encode_position_report(report: PositionReport) -> tuple[str, int]:
    """Encode a position report into an armored payload.

    Returns ``(payload, fill_bits)`` ready for AIVDM framing.
    """
    message_type = report.message_type
    if message_type not in POSITION_REPORT_TYPES:
        raise ValueError(f"unsupported message type: {message_type}")
    # Type (6), repeat indicator (2) = 0, MMSI (30).
    value = message_type << 32 | _uint(report.mmsi, 30)
    if message_type <= 3:
        # Navigation status (4) = 15, not defined; rate of turn (8) =
        # -128, not available.
        value = value << 12 | 0xF80
    else:
        value <<= 8  # regional reserved
    value = value << 10 | _encode_speed(report.speed_knots)
    # Position accuracy (1) = 0, then lon (28) and lat (27).
    value = value << 29 | _int(round(report.lon * _LON_SCALE), 28)
    value = value << 27 | _int(round(report.lat * _LAT_SCALE), 27)
    # Course (12), true heading (9) = 511, not available, second (6).
    value = value << 12 | _encode_course(report.course_degrees)
    value = (value << 9 | 511) << 6 | report.second_of_minute % 64
    if message_type <= 3:
        # Maneuver (2), spare (3), RAIM (1), radio status (19): all zero.
        return armor(value << 25, 168)
    if message_type == 18:
        # Regional reserved (2), CS unit (1) = 1, carrier-sense Class B,
        # display, DSC, band, message-22, assigned-mode and RAIM flags
        # (6) and radio status (20), all zero.
        return armor(value << 29 | 1 << 26, 168)
    # Type 19: regional reserved (4), ship name (120: 20 chars of '@'),
    # ship type (8), dimensions (9+9+6+6), EPFD type (4), RAIM, DTE and
    # assigned-mode flags (3) and spare (4): all zero.
    return armor(value << 173, 312)


def decode_payload(payload: str, fill_bits: int = 0) -> PositionReport | None:
    """Decode an armored payload into a :class:`PositionReport`.

    Returns ``None`` for message types the system does not consume (the Data
    Scanner ignores them) and raises ``ValueError`` on malformed payloads of
    a supported type.  Bits after the second of minute may be missing: none
    of them is consumed downstream.
    """
    value, nbits = unarmor(payload, fill_bits)
    if nbits < 6:
        raise ValueError("payload too short to carry a message type")
    message_type = value >> (nbits - 6)
    if message_type not in POSITION_REPORT_TYPES:
        return None
    span = _CLASS_A_BITS if message_type <= 3 else _CLASS_B_BITS
    if nbits < span:
        raise ValueError(f"payload too short: need {span} bits, have {nbits}")
    value >>= nbits - span  # now ends with the second of minute
    mmsi = (value >> (span - 38)) & 0x3FFFFFFF
    # The tail, as shifts from the end of the span: speed >> 83,
    # accuracy >> 82, lon >> 54, lat >> 27, course >> 15, heading >> 6,
    # second >> 0.  Lon and lat are sign-extended two's complement.
    speed = (value >> 83) & 0x3FF
    lon = (((value >> 54) & 0xFFFFFFF) ^ 0x8000000) - 0x8000000
    lat = (((value >> 27) & 0x7FFFFFF) ^ 0x4000000) - 0x4000000
    course = (value >> 15) & 0xFFF
    return PositionReport(
        message_type,
        mmsi,
        lon / _LON_SCALE,
        lat / _LAT_SCALE,
        SPEED_NOT_AVAILABLE if speed == 1023 else speed / 10.0,
        COURSE_NOT_AVAILABLE if course >= 3600 else course / 10.0,
        value & 0x3F,
    )


def _uint(value: int, width: int) -> int:
    if value < 0 or value >= 1 << width:
        raise ValueError(f"value {value} does not fit in {width} unsigned bits")
    return value


def _int(value: int, width: int) -> int:
    """Two's complement of a signed ``value`` in ``width`` bits."""
    bound = 1 << (width - 1)
    if value < -bound or value >= bound:
        raise ValueError(f"value {value} does not fit in {width} signed bits")
    return value & ((1 << width) - 1)


def _encode_speed(speed_knots: float) -> int:
    if speed_knots < 0:
        raise ValueError(f"negative speed: {speed_knots}")
    # 1023 = not available, 1022 = 102.2 knots or higher.
    return min(1022, round(speed_knots * 10))


def _encode_course(course_degrees: float) -> int:
    # 3600 = not available.
    return round((course_degrees % 360.0) * 10) % 3600
