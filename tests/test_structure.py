"""The derived structure constants, byte for byte.

The fixture ``golden_structure.json`` holds the rendered commutator
``a*b - b*a`` of every ordered pair of ambient letters, the weight of every
letter, the shifted coroot forms, and the Lie bracket of every ordered pair
of the fixed sp(4) basis.  It was recorded before the derivation of these
tables was rewritten, so any change in a derived constant shows here.
"""

import json
from pathlib import Path

from drasp4 import sp4
from drasp4.ambient import LETTERS, AmbientElem, amb_str
from drasp4.scalars import gauss_str

GOLDEN = Path(__file__).parent / "fixtures" / "golden_structure.json"


def lie_str(x: sp4.LieElem) -> str:
    parts = [f"({gauss_str(x.coords[s])})*{s}" for s in sp4.BASIS
             if s in x.coords]
    if x.const:
        parts.append(f"({gauss_str(x.const)})")
    return " + ".join(parts) or "0"


def structure() -> dict:
    gens = {a: AmbientElem.gen(a) for a in LETTERS}
    basis = {s: sp4.LieElem.basis(s) for s in sp4.BASIS}
    return {
        "bracket": {f"{a},{b}": amb_str(gens[a] * gens[b] - gens[b] * gens[a])
                    for a in LETTERS for b in LETTERS},
        "weight": {k: list(v) for k, v in sp4.WEIGHT.items()},
        "coroot_form": {k: list(v) for k, v in sp4.COROOT_FORM.items()},
        "lie_bracket": {f"{a},{b}": lie_str(sp4.lie_bracket(basis[a], basis[b]))
                        for a in sp4.BASIS for b in sp4.BASIS},
    }


def test_structure_constants_match_golden_fixture():
    golden = json.loads(GOLDEN.read_text())
    got = structure()
    assert sorted(got) == sorted(golden)
    for table, rows in golden.items():
        assert sorted(got[table]) == sorted(rows), table
        for key, value in rows.items():
            assert got[table][key] == value, (table, key)
