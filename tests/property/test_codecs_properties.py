"""Property-based tests for the low-level codecs (hypothesis)."""

import json
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import make_composite_key, split_composite_key
from repro.core.posting import (
    decode_posting_list,
    encode_posting_list,
    normalize,
    posting_merge_operator,
)
from repro.lsm.keys import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_varint,
    encode_varint,
    pack_internal_key,
    unpack_internal_key,
)
from repro.lsm.zonemap import decode_attribute, encode_attribute

_kinds = st.sampled_from([KIND_DELETE, KIND_VALUE, KIND_MERGE])
_attr_values = st.one_of(
    st.integers(min_value=-(2**52), max_value=2**52),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e15, max_value=1e15),
    st.text(max_size=50),
)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        decoded, offset = decode_varint(encode_varint(value))
        assert decoded == value
        assert offset == len(encode_varint(value))

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
    def test_concatenated_stream(self, values):
        blob = b"".join(encode_varint(v) for v in values)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = decode_varint(blob, offset)
            decoded.append(value)
        assert decoded == values
        assert offset == len(blob)


class TestInternalKeys:
    @given(st.binary(max_size=64),
           st.integers(min_value=0, max_value=MAX_SEQUENCE), _kinds)
    def test_roundtrip(self, user_key, seq, kind):
        ikey = unpack_internal_key(pack_internal_key(user_key, seq, kind))
        assert (ikey.user_key, ikey.seq, ikey.kind) == (user_key, seq, kind)

    @given(st.binary(max_size=16), st.binary(max_size=16),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    def test_order_matches_tuple_order(self, key_a, key_b, seq_a, seq_b):
        ikey_a = unpack_internal_key(pack_internal_key(key_a, seq_a, KIND_VALUE))
        ikey_b = unpack_internal_key(pack_internal_key(key_b, seq_b, KIND_VALUE))
        want = (key_a, -seq_a) < (key_b, -seq_b)
        assert (ikey_a.sort_key() < ikey_b.sort_key()) == want


class TestAttributeEncoding:
    @given(_attr_values)
    def test_roundtrip(self, value):
        decoded = decode_attribute(encode_attribute(value))
        if isinstance(value, str):
            assert decoded == value
        else:
            assert decoded == float(value)

    @given(_attr_values, _attr_values)
    def test_order_preserving_within_type(self, a, b):
        both_numeric = isinstance(a, (int, float)) and \
            isinstance(b, (int, float))
        both_text = isinstance(a, str) and isinstance(b, str)
        if both_numeric:
            assert (encode_attribute(a) < encode_attribute(b)) == \
                (float(a) < float(b))
        elif both_text:
            # UTF-8 byte order equals code-point order.
            assert (encode_attribute(a) < encode_attribute(b)) == \
                ([ord(c) for c in a] < [ord(c) for c in b])
        else:
            # Numbers always sort before strings.
            numeric_first = isinstance(a, (int, float))
            assert (encode_attribute(a) < encode_attribute(b)) == numeric_first


class TestCompositeKeys:
    @given(_attr_values, st.binary(max_size=40))
    def test_roundtrip(self, value, primary_key):
        encoded = encode_attribute(value)
        got_attr, got_pk = split_composite_key(
            make_composite_key(encoded, primary_key))
        assert (got_attr, got_pk) == (encoded, primary_key)

    @given(_attr_values, _attr_values,
           st.text(max_size=10), st.text(max_size=10))
    @settings(max_examples=200)
    def test_order_preserving(self, value_a, value_b, pk_a, pk_b):
        enc_a = encode_attribute(value_a)
        enc_b = encode_attribute(value_b)
        comp_a = make_composite_key(enc_a, pk_a.encode())
        comp_b = make_composite_key(enc_b, pk_b.encode())
        want = (enc_a, pk_a.encode()) < (enc_b, pk_b.encode())
        assert (comp_a < comp_b) == want


# -- the reference posting codec: a frozen dataclass per posting --------------


@dataclass(frozen=True)
class RefPosting:
    key: str
    seq: int
    deleted: bool = False

    def to_json(self) -> list:
        if self.deleted:
            return [self.key, self.seq, 1]
        return [self.key, self.seq]


def ref_encode(entries: list[RefPosting]) -> bytes:
    return json.dumps([entry.to_json() for entry in entries],
                      separators=(",", ":")).encode("utf-8")


def ref_decode(payload: bytes) -> list[RefPosting]:
    return [RefPosting(item[0], item[1], len(item) == 3)
            for item in json.loads(payload)]


def ref_normalize(entries: list[RefPosting]) -> list[RefPosting]:
    newest: dict[str, RefPosting] = {}
    for entry in entries:
        current = newest.get(entry.key)
        if current is None or entry.seq > current.seq:
            newest[entry.key] = entry
    return sorted(newest.values(), key=lambda e: (-e.seq, e.key))


def ref_merge_operator(key: bytes, operands: list[bytes]) -> bytes:
    return ref_encode(ref_normalize(
        [entry for operand in operands for entry in ref_decode(operand)]))


def as_entries(postings: list[RefPosting]) -> list[list]:
    return [posting.to_json() for posting in postings]


class TestPostingLists:
    # A few fixed keys (two of them non-ASCII) make one key's postings
    # meet often; small sequences make ties.
    _keys = st.one_of(st.sampled_from(["t1", "t2", "é", "日本"]),
                      st.text(max_size=8))
    _seqs = st.one_of(st.integers(min_value=0, max_value=8),
                      st.integers(min_value=0, max_value=2**62))
    _postings = st.lists(
        st.builds(RefPosting, key=_keys, seq=_seqs, deleted=st.booleans()),
        max_size=30)

    @given(_postings)
    def test_roundtrip(self, postings):
        entries = as_entries(postings)
        assert decode_posting_list(encode_posting_list(entries)) == entries

    @given(_postings)
    @settings(max_examples=200)
    def test_encode_equals_reference(self, postings):
        assert encode_posting_list(as_entries(postings)) == \
            ref_encode(postings)

    @given(_postings)
    @settings(max_examples=200)
    def test_normalize_equals_reference(self, postings):
        assert encode_posting_list(normalize(as_entries(postings))) == \
            ref_encode(ref_normalize(postings))

    @given(st.lists(_postings, max_size=6))
    @settings(max_examples=200)
    def test_merge_operator_equals_reference(self, fragments):
        operands = [ref_encode(fragment) for fragment in fragments]
        assert posting_merge_operator(b"k", operands) == \
            ref_merge_operator(b"k", operands)

