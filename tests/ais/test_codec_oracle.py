"""Differential tests: the integer AIS codec against the bit-list reference.

Parity between the live service and its offline twin cannot catch a
codec bug, because both run the same scanner.  These tests hold the
production codec (:mod:`repro.ais.messages`, the gateway's MMSI lookup
and :func:`repro.ais.nmea.nmea_checksum`) to the straightforward
bit-list codec in :mod:`tests.ais.bitlist_codec`: the same results, or
an exception of the same type, on valid and hostile input.  Messages are
not compared: the scanner's reject reason depends only on the result or
the exception type, and :class:`TestScannerStatistics` compares those
reasons over a mixed corpus.
"""

import random
import time
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import repro.ais.nmea
import repro.ais.scanner
from repro.ais.messages import (
    POSITION_REPORT_TYPES,
    PositionReport,
    armor,
    decode_payload,
    encode_position_report,
    unarmor,
)
from repro.ais.nmea import nmea_checksum, wrap_aivdm, wrap_aivdm_fragments
from repro.ais.scanner import DataScanner
from repro.gateway.routing import mmsi_of_payload
from tests.ais import bitlist_codec as reference

ARMOR = [chr(c) for c in range(48, 88)] + [chr(c) for c in range(96, 120)]
#: Characters ``int(..., 8)`` or a naive range check might let through,
#: among them an Arabic-Indic digit three (U+0663) and e-acute (U+00E9).
HOSTILE = ["_", " ", "\t", "\u0663", "\u00e9", "\x7f", "/", "X", "x", "~", "\n"]


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type)``: comparable."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc))


reports = st.builds(
    PositionReport,
    message_type=st.sampled_from(sorted(POSITION_REPORT_TYPES)),
    mmsi=st.integers(min_value=0, max_value=(1 << 30) - 1),
    lon=st.one_of(st.floats(-180.0, 180.0), st.just(181.0)),
    lat=st.one_of(st.floats(-90.0, 90.0), st.just(91.0)),
    speed_knots=st.floats(0.0, 150.0),
    course_degrees=st.floats(-720.0, 720.0),
    second_of_minute=st.integers(min_value=0, max_value=63),
)

#: Anything a :class:`PositionReport` can be built from, valid or not.
any_reports = st.builds(
    PositionReport,
    message_type=st.integers(min_value=0, max_value=40),
    mmsi=st.integers(min_value=-5, max_value=(1 << 30) + 5),
    lon=st.floats(-400.0, 400.0),
    lat=st.floats(-400.0, 400.0),
    speed_knots=st.floats(-5.0, 150.0),
    course_degrees=st.floats(allow_nan=False, allow_infinity=False),
    second_of_minute=st.integers(min_value=-100, max_value=100),
)


def fixed_report(message_type: int) -> PositionReport:
    return PositionReport(message_type, 237_006_500, -23.65, 37.94, 12.3, 187.4, 42)


class TestValidReports:
    @given(report=reports)
    def test_encode_decode_and_mmsi_agree(self, report):
        payload, fill = encode_position_report(report)
        assert (payload, fill) == reference.encode_position_report(report)
        assert decode_payload(payload, fill) == reference.decode_payload(payload, fill)
        assert mmsi_of_payload(payload, fill) == report.mmsi
        assert reference.mmsi_of_payload(payload, fill) == report.mmsi

    @given(report=any_reports)
    def test_encode_raises_the_same_error_on_any_report(self, report):
        assert outcome(encode_position_report, report) == outcome(
            reference.encode_position_report, report
        )

    @pytest.mark.parametrize("message_type", sorted(POSITION_REPORT_TYPES))
    def test_every_bit_cut(self, message_type):
        payload, _ = encode_position_report(fixed_report(message_type))
        for nbits in range(6 * len(payload) + 1):
            chars = -(-nbits // 6)
            cut, fill = payload[:chars], 6 * chars - nbits
            assert outcome(decode_payload, cut, fill) == outcome(
                reference.decode_payload, cut, fill
            ), nbits
            assert mmsi_of_payload(cut, fill) == reference.mmsi_of_payload(cut, fill)

    @pytest.mark.parametrize(
        ("message_type", "needed"), [(1, 143), (2, 143), (3, 143), (18, 139), (19, 139)]
    )
    def test_truncation_boundary(self, message_type, needed):
        # Class A needs 143 bits and Class B 139, up to the second of
        # minute: one bit fewer is a malformed payload.
        payload, _ = encode_position_report(fixed_report(message_type))
        chars = -(-needed // 6)
        full = decode_payload(payload[:chars], 6 * chars - needed)
        assert full == decode_payload(payload, 0)
        short = 6 * chars - needed + 1
        with pytest.raises(ValueError, match=f"need {needed} bits, have {needed - 1}"):
            decode_payload(payload[:chars], short)
        with pytest.raises(ValueError, match="cannot read 6 bits, only 5 remaining"):
            reference.decode_payload(payload[:chars], short)


class TestArbitraryPayloads:
    @given(
        payload=st.text(alphabet=st.sampled_from(ARMOR + HOSTILE), max_size=60),
        fill=st.integers(min_value=-3, max_value=300),
    )
    def test_same_result_or_same_error(self, payload, fill):
        assert outcome(decode_payload, payload, fill) == outcome(
            reference.decode_payload, payload, fill
        )
        assert mmsi_of_payload(payload, fill) == reference.mmsi_of_payload(payload, fill)

    @given(
        payload=st.text(alphabet=st.sampled_from(ARMOR + HOSTILE), max_size=60),
        fill=st.integers(min_value=-3, max_value=300),
    )
    def test_unarmor_matches_the_bit_list(self, payload, fill):
        expected = outcome(reference.payload_to_bits, payload, fill)
        if expected[0] == "ok":
            bits = expected[1]
            expected = ("ok", (int("".join(map(str, bits)) or "0", 2), len(bits)))
        assert outcome(unarmor, payload, fill) == expected

    @given(st.data())
    def test_armor_matches_the_bit_list(self, data):
        nbits = data.draw(st.integers(min_value=0, max_value=320))
        value = data.draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
        bits = [(value >> shift) & 1 for shift in range(nbits - 1, -1, -1)]
        assert armor(value, nbits) == reference.bits_to_payload(bits)

    @pytest.mark.parametrize("fill", range(-3, 301))
    def test_empty_payload(self, fill):
        assert outcome(decode_payload, "", fill) == outcome(
            reference.decode_payload, "", fill
        )
        assert mmsi_of_payload("", fill) is None

    @pytest.mark.parametrize("bad", HOSTILE)
    def test_bad_character_after_the_mmsi_is_still_rejected(self, bad):
        payload, _ = encode_position_report(fixed_report(1))
        for index in (0, 7, len(payload) - 1):
            broken = payload[:index] + bad + payload[index + 1 :]
            assert mmsi_of_payload(broken, 0) is None
            assert outcome(decode_payload, broken, 0) == outcome(
                reference.decode_payload, broken, 0
            )


class TestChecksum:
    @given(body=st.text(max_size=90))
    def test_arbitrary_text(self, body):
        assert nmea_checksum(body) == reference.nmea_checksum(body)

    @given(body=st.text(alphabet=st.characters(max_codepoint=127), max_size=90))
    def test_ascii_text(self, body):
        assert nmea_checksum(body) == reference.nmea_checksum(body)


def mixed_corpus(seed: int = 2015, size: int = 600) -> list[str]:
    """Good sentences and every kind of bad one, in a seeded mix."""
    rng = random.Random(seed)
    lines: list[str] = []
    for index in range(size):
        message_type = rng.choice(sorted(POSITION_REPORT_TYPES))
        report = PositionReport(
            message_type,
            rng.randrange(200_000_000, 800_000_000),
            rng.choice([rng.uniform(-180, 180), 181.0]),
            rng.choice([rng.uniform(-90, 90), rng.uniform(-90, 90), 91.0]),
            rng.uniform(0, 30),
            rng.uniform(0, 360),
            rng.randrange(60),
        )
        payload, fill = encode_position_report(report)
        kind = rng.randrange(9)
        if kind == 0:  # a character flipped, checksum recomputed
            at = rng.randrange(len(payload))
            payload = payload[:at] + rng.choice(ARMOR + HOSTILE) + payload[at + 1 :]
        elif kind == 1:  # truncated anywhere
            payload = payload[: rng.randrange(1, len(payload))]
        elif kind == 2:  # an unsupported message type (5: static data)
            payload = "5" + payload[1:]
        elif kind == 3:  # wrong fill bits for the payload
            fill = rng.randrange(6)
        if kind == 4 and message_type == 19:
            lines.extend(wrap_aivdm_fragments(payload, fill, message_id=index % 10))
            continue
        line = wrap_aivdm(payload, fill)
        if kind == 5:  # damaged in transit: checksum no longer matches
            line = line[:14] + ("0" if line[14] != "0" else "1") + line[15:]
        elif kind == 6:  # bad framing, checksum recomputed
            count, number, fill_field = rng.choice(
                [("x", "1", "0"), ("+1", "1", "0"), ("1", "2", "0"), ("1", "1", "9")]
            )
            body = f"AIVDM,{count},{number},,A,{payload},{fill_field}"
            line = f"!{body}*{nmea_checksum(body)}"
        elif kind == 7 and index % 3 == 0:  # an orphan continuation fragment
            line = wrap_aivdm_fragments(payload, fill, message_id=7)[-1]
        lines.append(line)
    return lines


class TestScannerStatistics:
    def test_identical_over_a_mixed_corpus(self):
        corpus = mixed_corpus()
        production = DataScanner()
        accepted = [production.scan(i, line) for i, line in enumerate(corpus)]
        production.flush()
        with mock.patch.object(
            repro.ais.scanner, "decode_payload", reference.decode_payload
        ), mock.patch.object(repro.ais.nmea, "nmea_checksum", reference.nmea_checksum):
            oracle = DataScanner()
            expected = [oracle.scan(i, line) for i, line in enumerate(corpus)]
            oracle.flush()
        assert accepted == expected
        assert production.statistics == oracle.statistics
        stats = production.statistics
        # The corpus exercises every rejection cause.
        for reason in (
            "bad_checksum",
            "bad_format",
            "bad_payload",
            "unsupported_type",
            "invalid_position",
            "fragmented_dropped",
        ):
            assert getattr(stats, reason) > 0, reason
        assert stats.accepted > 0 and stats.reassembled > 0


@pytest.mark.perf
class TestSpeedRatio:
    def test_int_decoder_at_least_3x_the_bit_list(self):
        # Both codecs decode the same corpus on the same host, interleaved,
        # best of five by CPU time: the ratio does not depend on the host.
        rng = random.Random(7)
        corpus = [
            encode_position_report(
                PositionReport(
                    rng.choice(sorted(POSITION_REPORT_TYPES)),
                    rng.randrange(1 << 30),
                    rng.uniform(-180, 180),
                    rng.uniform(-90, 90),
                    rng.uniform(0, 30),
                    rng.uniform(0, 360),
                    rng.randrange(60),
                )
            )
            for _ in range(400)
        ]

        def cpu_time(decode) -> float:
            start = time.process_time()
            for payload, fill in corpus:
                decode(payload, fill)
            return time.process_time() - start

        fast = slow = float("inf")
        for _ in range(5):
            slow = min(slow, cpu_time(reference.decode_payload))
            fast = min(fast, cpu_time(decode_payload))
        assert slow / fast >= 3.0, (
            f"int codec only {slow / fast:.1f}x the bit list: best of 5 over "
            f"{len(corpus)} payloads, int {fast * 1e3:.2f} ms, "
            f"bit list {slow * 1e3:.2f} ms of process time"
        )
