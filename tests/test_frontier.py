"""Two products near the degree frontier, byte for byte.

The fixture ``golden_frontier.json`` holds the canonical JSON of
``x1^4 x2^4 <> d1^4 d2^4`` and of ``X1^3 X2^3 * Y1^3 Y2^3`` in
``reduction_gwa()``, one product per line.  It was recorded before the
scalar products were packed into integers and the line tests moved to the
axes, so a change in any coefficient of these large products shows here.
"""

import json
from pathlib import Path

from drasp4.dra import diamond, dra_json
from drasp4.gwa import gwa_json, reduction_gwa
from drasp4.parser import evaluate

GOLDEN = Path(__file__).parent / "fixtures" / "golden_frontier.json"


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
