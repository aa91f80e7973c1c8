"""Products near the degree frontier, byte for byte.

The fixture ``golden_frontier.json`` holds the canonical JSON of
``x1^4 x2^4 <> d1^4 d2^4`` and of ``X1^3 X2^3 * Y1^3 Y2^3`` in
``reduction_gwa()``, one product per line.  It was recorded before the
scalar products were packed into integers and the line tests moved to the
axes, so a change in any coefficient of these large products shows here.

The fixture ``frontier_digests.json`` holds the sha256 of the canonical
JSON of three larger products, which take seconds each: the frontier
shapes at n = 8 and n = 7, and ``M_4 <> M_4`` with
``M_4 = d1^4 d2^4 x2^4 x1^4``, whose peel takes corrections.  They were
recorded before the scalar numerators were stored as packed rows.  Tier-1
does not compute them; CI runs ``frontier_digest_mismatches()``.
"""

import hashlib
import json
from pathlib import Path

from drasp4.dra import diamond, dra_json
from drasp4.gwa import gwa_json, reduction_gwa
from drasp4.parser import evaluate

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden_frontier.json"
DIGESTS = FIXTURES / "frontier_digests.json"


def frontier_text() -> str:
    alg = reduction_gwa()
    x1, x2, y1, y2 = alg.x(1), alg.x(2), alg.y(1), alg.y(2)
    products = {
        "diamond x1^4 x2^4, d1^4 d2^4": dra_json(diamond(
            evaluate("x1^4 x2^4", "dra"), evaluate("d1^4 d2^4", "dra"))),
        "gwa X1^3 X2^3, Y1^3 Y2^3": gwa_json(
            (x1 ** 3 * x2 ** 3) * (y1 ** 3 * y2 ** 3)),
    }
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                              for k, v in products.items()) + "\n}\n"


def test_frontier_products_match_golden_fixture():
    assert frontier_text() == GOLDEN.read_text()


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def frontier_digests() -> dict:
    """The sha256 of the canonical JSON of each large frontier product."""
    alg = reduction_gwa()
    x1, x2, y1, y2 = alg.x(1), alg.x(2), alg.y(1), alg.y(2)
    m4 = evaluate("d1^4 d2^4 x2^4 x1^4", "dra")
    return {
        "diamond x1^8 x2^8, d1^8 d2^8": _digest(dra_json(diamond(
            evaluate("x1^8 x2^8", "dra"), evaluate("d1^8 d2^8", "dra")))),
        "gwa X1^7 X2^7, Y1^7 Y2^7": _digest(gwa_json(
            (x1 ** 7 * x2 ** 7) * (y1 ** 7 * y2 ** 7))),
        "diamond M_4, M_4": _digest(dra_json(diamond(m4, m4))),
    }


def frontier_digest_mismatches() -> list:
    """The names of the frontier products whose digest differs from the
    fixture; empty when all match."""
    pinned = json.loads(DIGESTS.read_text())
    got = frontier_digests()
    assert set(got) == set(pinned), (sorted(got), sorted(pinned))
    return [name for name in pinned if got[name] != pinned[name]]


if __name__ == "__main__":
    print(json.dumps(frontier_digests(), indent=1))
