"""A frozen copy of the dict scalar kernel, the oracle for ``scalars.Poly2``.

Before numerators were stored as packed rows of big integers, a ``Poly2``
was a map ``{(ea, eb): (re, im)}`` of nonzero Gaussian-integer pairs over
one denominator ``d > 0`` with gcd(all re, all im, d) = 1.  This module
keeps that kernel's sum, product, shift and line division, one term at a
time, on plain ``(pairs, d)`` values, so the packed kernel can be compared
with it on any input, and a pairwise sum of line-only scalars built on
them.  Do not speed it up: it is an oracle.

A line key ``((ca, cb), k)`` is the form ca*Ha + cb*Hb + k.
"""

from math import comb
from math import gcd as _igcd


def ref_poly(c: dict, d: int) -> tuple:
    """(c, d) in lowest terms: the one gcd pass of the old kernel."""
    g = _igcd(d, *(x for xy in c.values() for x in xy)) if d > 1 else 1
    if g > 1:
        c = {e: (a // g, b // g) for e, (a, b) in c.items()}
        d //= g
    return c, d


def _acc(out: dict, items) -> dict:
    """Add nonzero (key, re, im) triples into out, a map of nonzero
    integer pairs, and return it; a key whose sum cancels is removed."""
    get = out.get
    for e, x, y in items:
        s = get(e)
        if s is None:
            out[e] = (x, y)
        else:
            s = (s[0] + x, s[1] + y)
            if s == (0, 0):
                del out[e]
            else:
                out[e] = s
    return out


def _pair_mul(c1: dict, c2: dict) -> dict:
    """The product of two pair maps, one term pair at a time."""
    return _acc({}, (((a1 + a2, b1 + b2), x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
                     for (a1, b1), (x1, y1) in c1.items()
                     for (a2, b2), (x2, y2) in c2.items()))


def ref_mul(p: tuple, q: tuple) -> tuple:
    (c1, d1), (c2, d2) = p, q
    return ref_poly(_pair_mul(c1, c2), d1 * d2)


def ref_add(p: tuple, q: tuple) -> tuple:
    """``Poly2.__add__`` of the dict kernel."""
    (c1, d1), (c2, d2) = p, q
    g = _igcd(d1, d2)
    f1, f2 = d2 // g, d1 // g
    out = (dict(c1) if f1 == 1
           else {e: (a * f1, b * f1) for e, (a, b) in c1.items()})
    return ref_poly(_acc(out, ((e, a * f2, b * f2)
                               for e, (a, b) in c2.items())), d1 * f1)


def _shift_terms(c: dict, da: int, db: int):
    for (ea, eb), (x, y) in c.items():
        for ia in range(ea + 1):
            ka = comb(ea, ia) * da ** (ea - ia)
            if ka:
                for ib in range(eb + 1):
                    k = ka * comb(eb, ib) * db ** (eb - ib)
                    if k:
                        yield (ia, ib), k * x, k * y


def ref_shift(p: tuple, da: int, db: int) -> tuple:
    """``Poly2.shift`` of the dict kernel: Ha -> Ha + da, Hb -> Hb + db."""
    c, d = p
    return ref_poly(_acc({}, _shift_terms(c, da, db)), d)


def _divide_out(p: tuple, key, limit: int) -> tuple:
    """p divided by the line as often as it divides, at most limit times,
    and how often: p's integer pairs are divided synthetically in the
    line's variable u over the other, v, staying integral."""
    c, d = p
    (ca, cb), k = key
    cv = cb if ca else 0  # the line is u + cv*v + k
    rows, n = {}, 0
    for e, xy in c.items():
        rows.setdefault(e[1 - ca], {})[e[ca]] = xy
    while n < limit:
        quot = _synthetic(rows, cv, k)
        if quot is None:
            break
        rows, n = quot, n + 1
    if not n:
        return p, 0
    return ref_poly({((u, v) if ca else (v, u)): xy for u, r in rows.items()
                     for v, xy in r.items() if xy != (0, 0)}, d), n


def _synthetic(rows: dict, cv: int, k: int):
    """Rows {u: {v: (re, im)}} over u + cv*v + k by synthetic division in
    u, or None if the remainder is not zero."""
    rows = {u: dict(r) for u, r in rows.items()}
    quot = {}
    for u in range(max(rows), 0, -1):
        q = quot[u - 1] = rows.pop(u, {})
        below = rows.setdefault(u - 1, {})
        for v, (x, y) in q.items():
            for w, f in ((v, k), (v + 1, cv)):
                if f:
                    a, b = below.get(w, (0, 0))
                    below[w] = (a - f * x, b - f * y)
    return None if any(x or y for x, y in rows.get(0, {}).values()) else quot


def _zero_at(terms, t: int) -> bool:
    """Whether the sum of (x + y*i) * t^e over the pairs (e, (x, y)) of
    terms is zero."""
    re = im = 0
    for e, (x, y) in terms:
        w = t ** e
        re += x * w
        im += y * w
    return not (re or im)


def _restriction(c: dict, ca: int, v: int) -> list:
    """c with the coordinate other than u set to v (0 or 1), as (exponent
    of u, pair) items; u is Ha if ca else Hb."""
    if not v:
        return [(e[1 - ca], xy) for e, xy in c.items() if not e[ca]]
    out = {}
    for e, (x, y) in c.items():
        s = out.get(e[1 - ca])
        out[e[1 - ca]] = (x, y) if s is None else (s[0] + x, s[1] + y)
    return list(out.items())


def ref_divide_lines(p: tuple, keys, limits) -> tuple:
    """p divided by each line of keys as often as it divides, at most
    limits[key] times, and the lines that divided with how often.  A line
    u + cv*v + k is tried only where p vanishes at its points (-k, 0) and
    (-k - cv, 1)."""
    rest, found = {}, {}
    for key in keys:
        (ca, cb), k = key
        for v, u in ((0, -k), (1, -k - (cb if ca else 0))):
            r = rest.get((ca, v))
            if r is None:
                r = rest[ca, v] = _restriction(p[0], ca, v)
            if not _zero_at(r, u):
                break
        else:
            p, n = _divide_out(p, key, limits[key])
            if n:
                found[key] = n
                rest = {}
    return p, found


def ref_line(key) -> tuple:
    """The line ca*Ha + cb*Hb + k as a polynomial."""
    (ca, cb), k = key
    return {e: (f, 0) for e, f in (((1, 0), ca), ((0, 1), cb), ((0, 0), k))
            if f}, 1


def ref_rf_add(f: tuple, g: tuple) -> tuple:
    """The sum of two line-only scalars, each (numerator, lines) with the
    numerator as ``ref_poly`` gives it: both numerators times their
    cofactors over the lcm of the lines, added, and then divided by every
    line of the lcm as often as it divides, up to its multiplicity."""
    (p, l1), (q, l2) = f, g
    lines = {key: max(l1.get(key, 0), l2.get(key, 0)) for key in {**l1, **l2}}
    for key, m in lines.items():
        for _ in range(m - l1.get(key, 0)):
            p = ref_mul(p, ref_line(key))
        for _ in range(m - l2.get(key, 0)):
            q = ref_mul(q, ref_line(key))
    t = ref_add(p, q)
    if not t[0]:
        return ({}, 1), {}
    t, found = ref_divide_lines(t, list(lines), lines)
    return t, {key: m - found.get(key, 0) for key, m in lines.items()
               if m > found.get(key, 0)}
