"""Bloom filters (Bloom, CACM 1970), LevelDB-flavoured.

The engine attaches one bloom filter per data block for primary keys (as
LevelDB does) and — the LevelDB++ extension of the paper's Section 3 — one
additional filter per block *per indexed secondary attribute*.

The implementation uses double hashing (Kirsch & Mitzenmacher): two 64-bit
hashes ``h1, h2`` simulate ``k`` independent hash functions as
``h1 + i*h2``.  The number of probes is derived from bits-per-key exactly as
in LevelDB: ``k = bits_per_key * ln 2``, clamped to [1, 30], which yields
the minimal false-positive rate ``2^(-(m/S) ln 2)`` of the paper's
Equation 1.
"""

from __future__ import annotations

import hashlib
import math
import struct

_U64 = struct.Struct("<QQ")


def bloom_hash(key: bytes) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``key``, for :func:`bloom_probe`.

    blake2b is seed-stable across processes (unlike ``hash()``), fast, and
    gives us 16 bytes in one call.  A caller probing many filters for one
    key (an Embedded LOOKUP walks one filter per data block) hashes once.
    """
    return _U64.unpack(hashlib.blake2b(key, digest_size=16).digest())


def optimal_num_probes(bits_per_key: float) -> int:
    """LevelDB's probe count: ``bits_per_key * ln 2`` clamped to [1, 30]."""
    k = int(round(bits_per_key * math.log(2)))
    return max(1, min(30, k))


def expected_false_positive_rate(bits_per_key: float) -> float:
    """Paper Equation 1 at the optimum: ``2 ** (-(m/S) * ln 2)``."""
    if bits_per_key <= 0:
        return 1.0
    return 2.0 ** (-bits_per_key * math.log(2))


class BloomFilterBuilder:
    """Accumulates keys, then emits a compact filter blob.

    Blob layout: ``bit_array || num_probes (1 byte)`` — the LevelDB filter
    policy format.  An empty key set produces an empty blob, which
    :func:`bloom_may_contain` treats as "definitely absent".
    """

    def __init__(self, bits_per_key: float) -> None:
        if bits_per_key <= 0:
            raise ValueError("bits_per_key must be positive")
        self.bits_per_key = bits_per_key
        self._hashes: list[tuple[int, int]] = []

    def add(self, key: bytes) -> None:
        # bloom_hash, inlined: this runs once per key written.
        self._hashes.append(
            _U64.unpack(hashlib.blake2b(key, digest_size=16).digest()))

    def __len__(self) -> int:
        return len(self._hashes)

    def finish(self) -> bytes:
        """The filter blob: each key sets bits ``(h1 + i*h2) mod 2**64 mod
        nbits`` for ``i < num_probes`` (:func:`bloom_probe`'s positions).

        A probe marks its bit as one ``"1"`` character of an ``nbits``-long
        bit string — one store, where a byte-and-mask update takes a load,
        two shifts and an or — and ``int(..., 2)`` packs the string at the
        end (character ``nbits - 1 - p`` is bit ``p``).
        """
        if not self._hashes:
            return b""
        nbits = max(64, int(len(self._hashes) * self.bits_per_key))
        nbytes = (nbits + 7) // 8
        nbits = nbytes * 8
        num_probes = optimal_num_probes(self.bits_per_key)
        probes = range(num_probes)
        bits = bytearray(b"0") * nbits
        for h, h2 in self._hashes:
            for _ in probes:
                bits[h % nbits] = 0x31  # "1"
                h = (h + h2) & 0xFFFFFFFFFFFFFFFF
        bits.reverse()
        return int(bits, 2).to_bytes(nbytes, "little") + bytes((num_probes,))


def bloom_may_contain(filter_blob: bytes, key: bytes) -> bool:
    """Membership probe.  No false negatives; false-positive rate per Eq. 1."""
    # bloom_hash, inlined: this runs once per (get, candidate block).
    return bloom_probe(
        filter_blob, *_U64.unpack(hashlib.blake2b(key, digest_size=16).digest()))


def bloom_probe(filter_blob: bytes, h: int, h2: int) -> bool:
    """:func:`bloom_may_contain` for a key already hashed by :func:`bloom_hash`."""
    if len(filter_blob) < 2:
        return False
    num_probes = filter_blob[-1]
    if num_probes > 30:
        # Reserved for future encodings; err on the safe side (LevelDB does
        # the same): claim presence so a corrupt filter never loses data.
        return True
    nbits = (len(filter_blob) - 1) * 8
    for _ in range(num_probes):
        pos = h % nbits
        if not filter_blob[pos >> 3] & (1 << (pos & 7)):
            return False
        h = (h + h2) & 0xFFFFFFFFFFFFFFFF
    return True


def measured_false_positive_rate(
        filter_blob: bytes, absent_keys: list[bytes]) -> float:
    """Fraction of ``absent_keys`` the filter wrongly claims to contain."""
    if not absent_keys:
        return 0.0
    hits = sum(1 for key in absent_keys if bloom_may_contain(filter_blob, key))
    return hits / len(absent_keys)
