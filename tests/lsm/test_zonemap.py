"""Zone maps and the order-preserving attribute encoding."""

import pytest

from repro.lsm.zonemap import (
    ZoneMap,
    ZoneMapBuilder,
    decode_attribute,
    encode_attribute,
)


class TestAttributeEncoding:
    def test_string_order(self):
        assert encode_attribute("apple") < encode_attribute("banana")
        assert encode_attribute("a") < encode_attribute("ab")

    def test_int_order_including_negatives(self):
        values = [-1000, -1, 0, 1, 42, 10**9]
        encoded = [encode_attribute(v) for v in values]
        assert encoded == sorted(encoded)

    def test_float_order(self):
        values = [-2.5, -0.1, 0.0, 0.25, 3.14, 1e18]
        encoded = [encode_attribute(v) for v in values]
        assert encoded == sorted(encoded)

    def test_negative_zero_is_zero(self):
        # Equal numbers must share one encoding, or a record indexed under
        # -0.0 is invisible to LOOKUP(0).
        assert encode_attribute(-0.0) == encode_attribute(0.0) \
            == encode_attribute(0)

    def test_int_float_interleaved(self):
        assert encode_attribute(1) < encode_attribute(1.5)
        assert encode_attribute(1.5) < encode_attribute(2)

    def test_numbers_sort_before_strings(self):
        assert encode_attribute(10**12) < encode_attribute("")

    def test_roundtrip_numbers(self):
        for value in [0, -5, 123456, 2.75, -0.125]:
            assert decode_attribute(encode_attribute(value)) == value

    def test_roundtrip_strings(self):
        for value in ["", "hello", "unicode ✓"]:
            assert decode_attribute(encode_attribute(value)) == value

    def test_bool_is_numeric(self):
        assert decode_attribute(encode_attribute(True)) == 1.0

    def test_bytes_pass_through_as_string_family(self):
        assert encode_attribute(b"raw")[0:1] == b"s"

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode_attribute(["list"])

    def test_decode_garbage(self):
        with pytest.raises(ValueError):
            decode_attribute(b"")
        with pytest.raises(ValueError):
            decode_attribute(b"zjunk")


class TestZoneMap:
    def test_empty_zone_matches_nothing(self):
        zone = ZoneMap()
        assert zone.is_empty
        assert not zone.contains(encode_attribute("x"))
        assert not zone.overlaps(encode_attribute("a"), encode_attribute("z"))

    def test_contains_bounds_inclusive(self):
        zone = ZoneMap(encode_attribute(10), encode_attribute(20))
        assert zone.contains(encode_attribute(10))
        assert zone.contains(encode_attribute(20))
        assert zone.contains(encode_attribute(15))
        assert not zone.contains(encode_attribute(9))
        assert not zone.contains(encode_attribute(21))

    def test_overlaps(self):
        zone = ZoneMap(encode_attribute(10), encode_attribute(20))
        assert zone.overlaps(encode_attribute(5), encode_attribute(10))
        assert zone.overlaps(encode_attribute(20), encode_attribute(30))
        assert zone.overlaps(encode_attribute(12), encode_attribute(13))
        assert zone.overlaps(encode_attribute(0), encode_attribute(100))
        assert not zone.overlaps(encode_attribute(0), encode_attribute(9))
        assert not zone.overlaps(encode_attribute(21), encode_attribute(99))

    def test_encode_decode_roundtrip(self):
        zone = ZoneMap(encode_attribute("aa"), encode_attribute("zz"))
        decoded, offset = ZoneMap.decode(zone.encode())
        assert decoded == zone
        assert offset == len(zone.encode())

    def test_empty_roundtrip(self):
        decoded, _ = ZoneMap.decode(ZoneMap().encode())
        assert decoded.is_empty

    def test_decode_sequence(self):
        zones = [ZoneMap(b"sa", b"sb"), ZoneMap(), ZoneMap(b"sc", b"sd")]
        blob = b"".join(z.encode() for z in zones)
        offset = 0
        out = []
        for _ in range(3):
            zone, offset = ZoneMap.decode(blob, offset)
            out.append(zone)
        assert out == zones


class TestZoneMapBuilder:
    def test_builder_tracks_min_max(self):
        builder = ZoneMapBuilder()
        for value in [5, 2, 9, 7]:
            builder.add(encode_attribute(value))
        zone = builder.finish()
        assert zone.min_value == encode_attribute(2)
        assert zone.max_value == encode_attribute(9)

    def test_empty_builder(self):
        assert ZoneMapBuilder().finish().is_empty

    def test_merge(self):
        builder = ZoneMapBuilder()
        builder.add(encode_attribute(50))
        builder.merge(ZoneMap(encode_attribute(1), encode_attribute(10)))
        builder.merge(ZoneMap())  # no-op
        zone = builder.finish()
        assert zone.min_value == encode_attribute(1)
        assert zone.max_value == encode_attribute(50)
