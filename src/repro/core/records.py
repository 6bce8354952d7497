"""The record model: JSON documents keyed by a primary key.

The paper's data model (Section 1): an entry is ``(k, v)`` where ``v`` is a
JSON object carrying the secondary attributes,
``v = {A1: val(A1), ..., Al: val(Al)}`` — e.g. a tweet keyed by ``tweet_id``
with attributes ``user_id`` and ``text``.  This module provides the codecs
between that model and the byte-oriented storage engine.
"""

from __future__ import annotations

import json
from typing import Any

from repro.lsm.errors import InvalidArgumentError

Document = dict[str, Any]

# One encoder for every call: ``json.dumps`` with non-default separators
# builds a new ``JSONEncoder`` each time.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def key_to_bytes(key: str | bytes) -> bytes:
    """Canonical byte form of a primary key."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise InvalidArgumentError(
        f"primary keys must be str or bytes, got {type(key).__name__}")


def key_to_str(key: bytes) -> str:
    """Human-facing form of a stored primary key."""
    return key.decode("utf-8", errors="replace")


def encode_document(document: Document) -> bytes:
    """Serialize a document to its stored JSON byte form.

    Keys are kept in insertion order (not sorted): the paper's values are
    raw tweets and the engine never relies on a canonical ordering.
    """
    if not isinstance(document, dict):
        raise InvalidArgumentError(
            f"documents must be dicts, got {type(document).__name__}")
    return _encode_json(document).encode("utf-8")


def decode_document(value: bytes) -> Document:
    """Parse a stored value back into a document."""
    doc = json.loads(value)
    if not isinstance(doc, dict):
        raise InvalidArgumentError("stored value is not a JSON object")
    return doc


def attribute_of(document: Document, attribute: str) -> Any:
    """The document's value for ``attribute``, or ``None`` if absent.

    Dotted names descend into nested objects (``"user.id"``); a flat key
    containing the literal dotted name takes precedence.  ``None``-valued
    attributes are treated as absent, matching the paper's "with val(A_i)
    not null" indexing rule.
    """
    from repro.lsm.options import resolve_attribute_path

    return resolve_attribute_path(document, attribute)
