"""Field arrays pinned by digest.

Core claim: every family builds the same arrays as when
``tests/data/field_digests.json`` was recorded (at 8010cbb): supports,
groups, the incidence record (indptr, indices, data), counts,
count_starts and means.  The table covers each family at the first grid
point of the shipped ``configs/*.json`` and at the ``exact_local``
benchmark sizes, plus a few builds that reach pads, finite gaps and
other patterns.  Each array is hashed by its values as int64 or float64,
with its shape, so a narrower dtype holding the same values keeps the
digest.  The specs are copies held in the table.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import locdep.cli as cli

TABLE = Path(__file__).parent / "data" / "field_digests.json"


def field_digest(field) -> str:
    """sha256 over the field's construction arrays, each as its int64 or
    float64 values."""
    h = hashlib.sha256()
    inc = field.incidence
    for a in (field.supports, *field.groups, inc.indptr, inc.indices, inc.data,
              field.counts, field.count_starts, field.means):
        a = np.asarray(a)
        a = np.ascontiguousarray(a, dtype=np.float64 if a.dtype.kind == "f" else np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_fields_match_pinned_digests():
    table = json.loads(TABLE.read_text())
    assert len(table["fields"]) == 25
    mismatches = []
    for entry in table["fields"]:
        field = cli.build_family(entry["family"], entry["params"], entry["n"]).field
        got = field_digest(field)
        if got != entry["digest"]:
            mismatches.append(f"{entry['name']} n={entry['n']}: {got}, pinned {entry['digest']}")
    assert not mismatches, "fields differ from the pinned table:\n" + "\n".join(mismatches)
