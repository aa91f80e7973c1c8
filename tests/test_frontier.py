"""Products near the degree frontier, byte for byte.

The fixture ``golden_frontier.json`` holds the canonical JSON of
``x1^4 x2^4 <> d1^4 d2^4`` and of ``X1^3 X2^3 * Y1^3 Y2^3`` in
``reduction_gwa()``, one product per line.  It was recorded before the
scalar products were packed into integers and the line tests moved to the
axes, so a change in any coefficient of these large products shows here.

The fixture ``frontier_digests.json`` holds the sha256 of the canonical
JSON of seven larger products, which take seconds each: the frontier
shapes at n = 8 and n = 7, and ``M_4 <> M_4`` with
``M_4 = d1^4 d2^4 x2^4 x1^4``, whose peel takes corrections, recorded
before the scalar numerators were stored as packed rows; the frontier
shapes at n = 10 and n = 8, recorded before the sums of several scalars
into one output coefficient were taken at once; the GWA frontier shape
at n = 10, recorded before its basis terms were built as chains of
images sigma_i^k(t_i); and the GWA frontier shape at n = 12, recorded
before those images and chains were held in one memo.  Tier-1 does not
compute them; CI runs ``frontier_digest_mismatches()``.

The frontier shapes have constant coefficients, so they never take
sigma^m1(t^e2) with e2 != 0.  ``TWISTED`` pins the sha256 of both
products of u = (t1^2 t2 + 1) X1^5 Y2^3 and v = t1^3 t2^2 Y1^4 X2^5,
recorded before the same change; tier-1 compares them.
"""

import hashlib
import json
from pathlib import Path

from drasp4.dra import diamond, dra_json
from drasp4.gwa import BasePoly, GwaElem, gwa_json, reduction_gwa
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
        "diamond x1^10 x2^10, d1^10 d2^10": _digest(dra_json(diamond(
            evaluate("x1^10 x2^10", "dra"), evaluate("d1^10 d2^10", "dra")))),
        "gwa X1^8 X2^8, Y1^8 Y2^8": _digest(gwa_json(
            (x1 ** 8 * x2 ** 8) * (y1 ** 8 * y2 ** 8))),
        "gwa X1^10 X2^10, Y1^10 Y2^10": _digest(gwa_json(
            (x1 ** 10 * x2 ** 10) * (y1 ** 10 * y2 ** 10))),
        "gwa X1^12 X2^12, Y1^12 Y2^12": _digest(gwa_json(
            (x1 ** 12 * x2 ** 12) * (y1 ** 12 * y2 ** 12))),
    }


TWISTED = {
    "u v": "63ddd263e919451868348075f3644931328d08a56cfdff0e77ca7fe5e33d6fbb",
    "v u": "f12294cbd10dc3f616c970551d49e094b13f9bde2c659366745c4303fc83507c",
}


def test_products_with_t_in_both_factors_match_pinned_digests():
    """sigma^m1(t^e2) at e2 = (3, 2) and (2, 1), with left exponents up
    to 5 and contractions of length 3 and 4 on both indices."""
    alg = reduction_gwa()
    t1, t2 = alg.t(1), alg.t(2)
    u = GwaElem(alg, {(5, -3): t1 ** 2 * t2 + BasePoly.const(2, 1)})
    v = GwaElem(alg, {(-4, 5): t1 ** 3 * t2 ** 2})
    got = {"u v": _digest(gwa_json(u * v)), "v u": _digest(gwa_json(v * u))}
    assert got == TWISTED


def frontier_digest_mismatches() -> list:
    """The names of the frontier products whose digest differs from the
    fixture; empty when all match."""
    pinned = json.loads(DIGESTS.read_text())
    got = frontier_digests()
    assert set(got) == set(pinned), (sorted(got), sorted(pinned))
    return [name for name in pinned if got[name] != pinned[name]]


if __name__ == "__main__":
    print(json.dumps(frontier_digests(), indent=1))
