"""Record model codecs."""

import json

import pytest

from repro.core.records import (
    attribute_of,
    decode_document,
    encode_document,
    key_to_bytes,
    key_to_str,
)
from repro.lsm.errors import InvalidArgumentError


class TestKeys:
    def test_str_roundtrip(self):
        assert key_to_str(key_to_bytes("tweet-42")) == "tweet-42"

    def test_bytes_passthrough(self):
        assert key_to_bytes(b"raw") == b"raw"

    def test_unicode(self):
        assert key_to_str(key_to_bytes("ключ")) == "ключ"

    def test_invalid_type(self):
        with pytest.raises(InvalidArgumentError):
            key_to_bytes(42)

    def test_undecodable_bytes_replaced(self):
        assert "�" in key_to_str(b"\xff\xfe")


class TestDocuments:
    def test_roundtrip(self):
        doc = {"UserID": "u1", "CreationTime": 123, "nested": {"a": [1, 2]}}
        assert decode_document(encode_document(doc)) == doc

    def test_compact_encoding(self):
        assert encode_document({"a": 1}) == b'{"a":1}'

    @pytest.mark.parametrize("doc", [
        {"UserID": "u1", "nested": {"a": [1, 2.5, None, True]}, "e": {}},
        {"Body": "ключ — 日本語 🎉", "ü": ["\u00e9", "\n\t\""]},
    ], ids=["nested", "non-ascii"])
    def test_stored_bytes_equal_json_dumps(self, doc):
        assert encode_document(doc) == json.dumps(
            doc, separators=(",", ":")).encode("utf-8")

    def test_non_dict_rejected_on_encode(self):
        with pytest.raises(InvalidArgumentError):
            encode_document(["not", "a", "dict"])

    def test_non_object_rejected_on_decode(self):
        with pytest.raises(InvalidArgumentError):
            decode_document(b"[1, 2]")

    def test_attribute_of(self):
        doc = {"UserID": "u1", "nullish": None}
        assert attribute_of(doc, "UserID") == "u1"
        assert attribute_of(doc, "missing") is None
        assert attribute_of(doc, "nullish") is None
