"""Checksummed JSONL lines: the line codec of the verdict store.

The verdict store's segments (:mod:`repro.verify.store`) write one JSON
record per line and protect each line with a checksum, so a reader can
tell a torn or damaged line from a good one.  This module is that codec;
it keeps the line format out of the store's record logic.

A line is ``json.dumps(record, sort_keys=True)`` of the record plus a
``"c"`` field: the first 16 hex digits of the SHA-256 of the record
*without* ``c``, in the same canonical form.  ``c`` sorts before every
key these records use, so every line reads::

    {"c": "<16 hex digits>", <rest of the canonical record>

and the checksummed payload is ``"{"`` followed by the line's bytes
after the ``c`` field.  :func:`parse_line` checks those bytes as they
are and decodes them once, never re-encoding the record.  So a line
that still parses as the same JSON but was re-serialized in another
form (other separators, key order or spacing) no longer matches the
checksum its writer stored, and is rejected like a torn one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

_HEAD = '{"c": "'
_DIGITS = 16
_SEP = '", '
#: Where the checksum ends and where the payload's first key starts.
_SUM_END = len(_HEAD) + _DIGITS
_BODY = _SUM_END + len(_SEP)


def line_checksum(payload: str) -> str:
    """Truncated SHA-256 of one canonical record payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_DIGITS]


def encode_line(record: dict) -> str:
    """The checksummed line of ``record`` (no newline).

    ``record`` holds at least one key and no ``c``; it is not modified.
    """
    payload = json.dumps(record, sort_keys=True)
    return _HEAD + line_checksum(payload) + _SEP + payload[1:]


def parse_line(line: str) -> Optional[dict]:
    """The record of one line (without ``c``), or None when the line's
    bytes are not the ones its checksum was computed over."""
    if not line.startswith(_HEAD) or line[_SUM_END:_BODY] != _SEP:
        return None
    payload = "{" + line[_BODY:]
    if line[len(_HEAD):_SUM_END] != line_checksum(payload):
        return None
    try:
        return json.loads(payload)
    except ValueError:
        return None
