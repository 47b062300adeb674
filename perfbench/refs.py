"""Reference digests for the benchmark's output checks.

Every check compares a canonical digest of ``results_to_dict(...)``
output against a digest stored in ``refs.json`` beside this file.
``make_refs.py`` generates that file by running each reference campaign
once, serially and with no benchmark code in the loop.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

#: Marks a sequence job that raised at the reference commit; the value
#: after the colon is the exception type.
ERROR_PREFIX = "error:"


def digest(document) -> str:
    """Canonical digest of JSON-compatible data (key order ignored)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def row_key(row: dict) -> str:
    return f"{row['variant']}/{row['api']}/{row['mut']}"


def row_digests(document: dict) -> list[list[str]]:
    """``[key, digest]`` per result row, in document order, plus one
    entry per extra top-level key (``partial``, ``quarantined``)."""
    entries = [[row_key(row), digest(row)] for row in document["results"]]
    for key in sorted(document):
        if key not in ("format", "version", "results"):
            entries.append([f"document/{key}", digest(document[key])])
    return entries


def mismatched_rows(document: dict, expected: list[list[str]]) -> list[str]:
    """Keys whose digest differs from ``expected``, plus keys missing
    from either side."""
    got = dict(map(tuple, row_digests(document)))
    want = dict(map(tuple, expected))
    keys = got.keys() | want.keys()
    return sorted(key for key in keys if got.get(key) != want.get(key))


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())
