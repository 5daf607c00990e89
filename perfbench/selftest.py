"""Self-test of the independent checkers: each must reject a planted wrong answer.

    python3 perfbench/selftest.py

Needs only numpy (the checkers import nothing from ramseykit).  For each
checker it first confirms that a right answer passes, then that a planted
wrong one is rejected; exits 1 if any check misbehaves.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

import checks


def rle(colors):
    out = []
    for c in colors:
        if out and out[-1][0] == c:
            out[-1][1] += 1
        else:
            out.append([c, 1])
    return out


def cases():
    # decide: a valid avoider of the Schur triple, r = 2, N = 4 ...
    good = {"n": 4, "r": 2, "rle": rle([1, 2, 2, 1])}
    yield "avoider accepted", checks.check_avoider(good, "schur", 2, 4, False), False
    # ... and a non-avoiding certificate: 1 + 1 = 2 all colour 1
    bad = {"n": 4, "r": 2, "rle": rle([1, 1, 2, 1])}
    yield "non-avoiding certificate", checks.check_avoider(bad, "schur", 2, 4, False), True
    noncanon = {"n": 4, "r": 2, "rle": rle([2, 1, 1, 2])}
    yield "non-canonical certificate", checks.check_avoider(noncanon, "schur", 2, 4, False), True

    known: dict = {}
    q = {"kind": "threshold", "family": "x_y_3xmy", "r": 2, "max_n": 20, "distinct": False}
    avoider8 = next(list(c) for c in itertools.product((1, 2), repeat=8)
                    if c[0] == 1 and checks.first_monochromatic(list(c), "x_y_3xmy") is None)
    ok = {"value": 9, "exact": True, "cert": {"n": 8, "r": 2, "rle": rle(avoider8)}}
    yield "threshold T=9 accepted", checks.check_decide(q, ok, known), False
    wrong = {"value": 8, "exact": True,
             "cert": {"n": 7, "r": 2, "rle": rle([1, 2, 2, 1, 1, 2, 2])}}
    yield "wrong T (x_y_3xmy r=2 claimed 8)", checks.check_decide(q, wrong, known), True
    q3 = {"kind": "threshold", "family": "vdw:3", "r": 3, "max_n": 30, "distinct": False}
    yield "wrong T (vdw:3 r=3 claimed 26)", checks.check_decide(
        q3, {"value": 26, "exact": True, "cert": None}, known), True
    qe = {"kind": "exists", "family": "schur", "r": 4, "n": 43, "distinct": False}
    yield "false 'no avoider' (schur r=4 N=43)", checks.check_decide(qe, {"cert": None}, known), True

    # scan: a count off by one, and a wrong first witness
    rng = np.random.default_rng(7)
    colors = rng.integers(1, 3, size=400).astype(np.int32)
    xs, _ = checks.direct_witnesses(colors, "schur")
    count_op = {"kind": "count", "family": "schur", "coloring": "rand2"}
    yield "count accepted", checks.check_scan(count_op, int(xs.size), colors), False
    yield "count off by one", checks.check_scan(count_op, int(xs.size) + 1, colors), True
    brute = sum(1 for x in range(1, 401) for y in range(1, 401 - x)
                if colors[x - 1] == colors[y - 1] == colors[x + y - 1])
    yield "direct count equals a plain loop", [] if brute == xs.size else ["mismatch"], False
    find_op = {"kind": "find", "family": "xyxy", "coloring": "rand2"}
    xs, ys = checks.direct_witnesses(colors, "xyxy")
    second = checks.witness_tuple(colors, "xyxy", xs[1], ys[1])
    yield "not the lex-first witness", checks.check_scan(find_op, second, colors), True

    # reduce: a solution with one value of another colour
    solid = [1] * 300
    want = checks.first_solution((1, 2, -3), solid)
    a, color, _ = want
    yield "solution accepted", checks.check_solution((1, 2, -3), solid, a, color), False
    recolored = list(solid)
    recolored[a[2] - 1] = 2
    yield "solution value of another colour", checks.check_solution((1, 2, -3), recolored, a, color), True
    u, b = checks.substitution((1, 2, -3))
    op = {"c": (1, 2, -3), "coloring": "solid_300"}
    yield "false None for a solvable case", checks.check_reduce(
        op, {"u": list(u), "b": b, "solution": None}, solid), True

    # store: a lookup that returns another record
    recs = [{"kind": "avoiding", "fingerprint": "f", "params": {"n": n, "r": 2},
             "payload": {"n": n}, "provenance": {}} for n in (1, 2, 3)]
    lines = [json.dumps(r) for r in recs]
    key = {"kind": "avoiding", "fingerprint": "f", "params": {"n": 2, "r": 2}}
    yield "lookup accepted", checks.check_lookup(recs[1], lines, key), False
    yield "lookup returns another record", checks.check_lookup(recs[2], lines, key), True
    arr = np.array([1, 1, 2, 3, 3, 3], dtype=np.int32)
    rt = {"name": "a", "loaded": checks.digest(arr), "runs": 3,
          "decoded": checks.digest(arr), "roundtrip": checks.digest(arr)}
    yield "round trip accepted", checks.check_roundtrip(rt, arr), False
    yield "RLE run count off by one", checks.check_roundtrip(dict(rt, runs=4), arr), True


def main() -> int:
    bad = 0
    for label, errors, should_fail in cases():
        ok = bool(errors) == should_fail
        bad += not ok
        verdict = ("rejected" if errors else "accepted")
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({errors[0][:90]})" if errors else ""))
    print(f"{bad} checker self-test(s) failed" if bad else "all checker self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
