"""Routing units: MMSI sharding and fragment-group affinity."""

import pytest

from repro.ais import PositionReport, encode_position_report
from repro.ais.nmea import nmea_checksum, wrap_aivdm, wrap_aivdm_fragments
from repro.gateway.routing import (
    PENDING_FRAGMENT_CAPACITY,
    SentenceRouter,
    mmsi_of_payload,
    shard_for_mmsi,
)
from repro.obs.registry import MetricsRegistry


def _sentence(mmsi: int, message_type: int = 1):
    payload, fill = encode_position_report(PositionReport(
        message_type=message_type,
        mmsi=mmsi,
        lon=23.5,
        lat=37.9,
        speed_knots=10.0,
        course_degrees=90.0,
        second_of_minute=0,
    ))
    return payload, fill


class TestShardForMmsi:
    def test_deterministic_and_in_range(self):
        for mmsi in (0, 1, 111111111, 999999999):
            for shards in (1, 2, 4, 7):
                index = shard_for_mmsi(mmsi, shards)
                assert index == shard_for_mmsi(mmsi, shards)
                assert 0 <= index < shards

    def test_spreads_consecutive_mmsis(self):
        # A fleet numbered in a block must not all land on one runtime.
        indices = {shard_for_mmsi(237000000 + i, 4) for i in range(16)}
        assert len(indices) == 4


class TestMmsiOfPayload:
    def test_extracts_the_encoded_mmsi(self):
        payload, fill = _sentence(237006500)
        assert mmsi_of_payload(payload, fill) == 237006500

    def test_truncated_payload_is_none(self):
        assert mmsi_of_payload("1", 0) is None

    def test_invalid_armor_is_none(self):
        assert mmsi_of_payload("\x7f\x7f\x7f\x7f\x7f\x7f\x7f", 0) is None


class TestSentenceRouter:
    def setup_method(self):
        self.registry = MetricsRegistry()
        self.router = SentenceRouter(4, self.registry)

    def test_routes_by_mmsi(self):
        payload, fill = _sentence(237006500)
        sentence = wrap_aivdm(payload, fill)
        assert self.router.route(sentence) == shard_for_mmsi(237006500, 4)

    def test_fragments_follow_their_first_fragment(self):
        payload, fill = _sentence(237006500, message_type=19)
        first, second = wrap_aivdm_fragments(payload, fill, message_id=3)
        expected = shard_for_mmsi(237006500, 4)
        assert self.router.route(first) == expected
        assert self.router.route(second) == expected
        # The final fragment retires the group.
        assert not self.router._pending

    def test_orphan_fragment_goes_to_runtime_zero_counted(self):
        payload, fill = _sentence(237006500, message_type=19)
        _, second = wrap_aivdm_fragments(payload, fill, message_id=9)
        assert self.router.route(second) == 0
        assert self.registry.counter("gateway.route.unroutable").value == 1
        assert (
            self.registry.counter(
                "gateway.route.unroutable.orphan_fragment"
            ).value == 1
        )

    def test_unparseable_sentence_goes_to_runtime_zero_counted(self):
        assert self.router.route("!AIVDM,garbage*00") == 0
        assert self.registry.counter("gateway.route.unroutable").value == 1

    @pytest.mark.parametrize(
        ("count", "number", "fill"),
        [
            ("1", "1", "9"),
            ("1", "1", "-1"),
            ("+1", "1", "0"),
            pytest.param("1", "1" * 5000, "0", id="5000-digit-number"),
        ],
    )
    def test_bad_numeric_framing_is_unparseable(self, count, number, fill):
        payload, _ = _sentence(237006500)
        body = f"AIVDM,{count},{number},,A,{payload},{fill}"
        assert self.router.route(f"!{body}*{nmea_checksum(body)}") == 0
        assert (
            self.registry.counter("gateway.route.unroutable.unparseable").value == 1
        )

    def test_bad_character_past_the_mmsi_is_unroutable(self):
        payload, fill = _sentence(237006500)
        sentence = wrap_aivdm(payload[:20] + "_" + payload[21:], fill)
        assert self.router.route(sentence) == 0
        assert (
            self.registry.counter("gateway.route.unroutable.short_payload").value == 1
        )

    def test_abandoned_fragment_groups_are_evicted_counted(self):
        payload, fill = _sentence(237006500, message_type=19)
        for message_id in range(PENDING_FRAGMENT_CAPACITY + 8):
            first, _ = wrap_aivdm_fragments(
                payload, fill, message_id=message_id
            )
            self.router.route(first)
        assert len(self.router._pending) <= PENDING_FRAGMENT_CAPACITY
        assert (
            self.registry.counter(
                "gateway.route.fragment_groups_dropped"
            ).value == 8
        )

    def test_rejects_zero_backends(self):
        with pytest.raises(ValueError):
            SentenceRouter(0, self.registry)
