"""Answer checkers that share nothing with ramseykit.

Nothing here imports the program.  Instances come from hand-written
formulas, colourings are raw colour lists or numpy arrays (colour of v at
index v-1), and negative answers are checked by exhaustive enumeration when
r**N <= 2**26, and against published constants otherwise.

Every ``check_*`` function returns a list of error strings; an empty list
means the answer holds.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# Term values of each family at an assignment (x, y), in the order the
# benchmark writes the family's terms to its JSON file.
FORMULAS = {
    "schur": lambda x, y: (x, y, x + y),
    "vdw:3": lambda x, y: (x, x + y, x + 2 * y),
    "vdw:4": lambda x, y: (x, x + y, x + 2 * y, x + 3 * y),
    "x_y_3xmy": lambda x, y: (x, y, 3 * x - y),
    "xyxy": lambda x, y: (x, x + y, x * y),
    "xysum": lambda x, y: (x, y, x + y, x * y),
}

# Least N at which every r-colouring of [1..N] holds an instance.
# W(3;3) = 27 and W(4;2) = 35: V. Chvatal, "Some unknown van der Waerden
# numbers", 1970.  S(3) = 13 and S(4) = 44 (so T = S + 1): L. D. Baumert,
# "Sum-free sets", 1965.
PUBLISHED_T = {
    ("vdw:3", 3): 27,
    ("vdw:4", 2): 35,
    ("schur", 3): 14,
    ("schur", 4): 45,
}

EXHAUSTIVE_LIMIT = 1 << 26


# ---- instances ----


def instances(family: str, n: int, distinct: bool = False):
    """Admissible (x, y, values) in lexicographic order of (x, y).

    Every family here has an all-positive term in x and one in y, so
    admissible assignments lie in [1..n]^2.
    """
    f = FORMULAS[family]
    out = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            vals = f(x, y)
            if all(1 <= v <= n for v in vals):
                if distinct and len(set(vals)) != len(vals):
                    continue
                out.append((x, y, vals))
    return out


def value_sets(family: str, n: int, distinct: bool = False) -> list[tuple[int, ...]]:
    """Distinct value sets of the admissible instances (set semantics)."""
    return sorted({tuple(sorted(set(v))) for _, _, v in instances(family, n, distinct=distinct)})


def first_monochromatic(colors, family: str, distinct: bool = False):
    """First (x, y, values) whose values share a colour, or None."""
    n = len(colors)
    for x, y, vals in instances(family, n, distinct=distinct):
        c = colors[vals[0] - 1]
        if all(colors[v - 1] == c for v in vals[1:]):
            return x, y, vals
    return None


def rle_decode(rle, n: int, r: int) -> list[int] | None:
    out: list[int] = []
    for color, length in rle:
        if not (1 <= int(color) <= r) or int(length) < 1:
            return None
        out.extend([int(color)] * int(length))
    return out if len(out) == n else None


def is_canonical(colors) -> bool:
    """Colour 1 first, and each new colour label the next unused one."""
    top = 0
    for c in colors:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def check_avoider(cert, family: str, r: int, n: int, distinct: bool) -> list[str]:
    """Re-check an avoiding colouring instance by instance."""
    if cert is None:
        return [f"{family} r={r}: expected an avoider at N={n}, got none"]
    if cert["n"] != n or cert["r"] != r:
        return [f"{family}: certificate is for N={cert['n']} r={cert['r']}, expected N={n} r={r}"]
    colors = rle_decode(cert["rle"], n, r)
    if colors is None:
        return [f"{family} r={r} N={n}: certificate RLE does not decode to {n} colours in 1..{r}"]
    errors = []
    if not is_canonical(colors):
        errors.append(f"{family} r={r} N={n}: certificate is not in canonical colour order")
    hit = first_monochromatic(colors, family, distinct)
    if hit is not None:
        errors.append(f"{family} r={r} N={n}: certificate holds monochromatic {hit}")
    return errors


def no_avoider_exhaustive(family: str, r: int, n: int, distinct: bool = False) -> bool:
    """True iff every r-colouring of [1..n] holds an instance.

    Enumerates the colourings with colour(1) = 1, which loses nothing since
    relabelling colours maps avoiders to avoiders.
    """
    if r ** n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{r}^{n} colourings is past the exhaustive limit")
    sets = value_sets(family, n, distinct)
    if any(len(s) == 1 for s in sets):
        return True
    free = n - 1
    total = r ** free
    chunk = 1 << 18
    powers = [r ** p for p in range(free)]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(total, start + chunk), dtype=np.int64)
        digits = np.zeros((idx.size, n), dtype=np.int8)
        for p in range(free):
            digits[:, p + 1] = (idx // powers[p]) % r
        hit = np.zeros(idx.size, dtype=bool)
        for s in sets:
            mono = digits[:, s[0] - 1] == digits[:, s[1] - 1]
            for v in s[2:]:
                mono &= digits[:, s[0] - 1] == digits[:, v - 1]
            hit |= mono
        if not hit.all():
            return False
    return True


def exact_threshold(family: str, r: int, distinct: bool = False, limit: int = 40) -> int:
    """Least N with no avoider, by exhaustive enumeration (small cases only)."""
    for n in range(1, limit + 1):
        if r ** n > EXHAUSTIVE_LIMIT:
            break
        if no_avoider_exhaustive(family, r, n, distinct):
            return n
    raise ValueError(f"{family} r={r}: threshold not reachable exhaustively")


def true_threshold(family: str, r: int, distinct: bool) -> int | None:
    """The threshold exhaustively when r**T is small, else a published constant."""
    published = None if distinct else PUBLISHED_T.get((family, r))
    if published is not None and r ** published > EXHAUSTIVE_LIMIT:
        return published
    try:
        t = exact_threshold(family, r, distinct)
    except ValueError:
        return None
    if published is not None and t != published:
        raise AssertionError(f"{family} r={r}: exhaustive T={t}, published T={published}")
    return t


# ---- decide ----


def check_decide(q: dict, answer: dict, known: dict) -> list[str]:
    """q: kind/family/r/n or max_n/distinct; answer: value/exact/cert.

    ``known`` memoises true thresholds across calls.
    """
    fam, r, distinct = q["family"], q["r"], q.get("distinct", False)
    key = (fam, r, distinct)
    if key not in known:
        known[key] = true_threshold(fam, r, distinct)
    t_true = known[key]
    if q["kind"] == "exists":
        n = q["n"]
        if answer["cert"] is not None:
            return check_avoider(answer["cert"], fam, r, n, distinct)
        if t_true is None or n < t_true:
            return [f"{fam} r={r}: no avoider claimed at N={n}, but T={t_true}"]
        return []
    max_n = q["max_n"]
    value, exact, cert = answer["value"], answer["exact"], answer["cert"]
    if exact:
        errors = []
        if t_true is None:
            errors.append(f"{fam} r={r}: exact T={value} claimed but no independent value")
        elif value != t_true:
            errors.append(f"{fam} r={r}: T={value} claimed, true T={t_true}")
        if value > 1:
            errors += check_avoider(cert, fam, r, value - 1, distinct)
        return errors
    if value != max_n + 1:
        return [f"{fam} r={r}: lower bound {value} is not max_n+1={max_n + 1}"]
    errors = check_avoider(cert, fam, r, max_n, distinct)
    if t_true is not None and t_true <= max_n:
        errors.append(f"{fam} r={r}: lower bound T>={value} but true T={t_true}")
    return errors


# ---- scan ----


def direct_witnesses(colors: np.ndarray, family: str, box: int | None = None):
    """All monochromatic (x, y) in lex order, by a numpy sweep over x."""
    n = colors.size
    f = FORMULAS[family]
    cap = n if box is None else min(n, box)
    col = np.concatenate(([0], colors.astype(np.int64)))
    xs, ys = [], []
    y = np.arange(1, cap + 1, dtype=np.int64)
    for x in range(1, cap + 1):
        vals = f(np.int64(x), y)
        ok = np.ones(cap, dtype=bool)
        for v in vals:
            ok &= (v >= 1) & (v <= n)
        if not ok.any():
            continue
        c0 = col[np.clip(vals[0], 0, n)]
        for v in vals[1:]:
            ok &= col[np.clip(v, 0, n)] == c0
        hit = y[ok]
        if hit.size:
            xs.append(np.full(hit.size, x, dtype=np.int64))
            ys.append(hit)
    if not xs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(xs), np.concatenate(ys)


def witness_tuple(colors: np.ndarray, family: str, x: int, y: int) -> tuple:
    vals = tuple(int(v) for v in FORMULAS[family](int(x), int(y)))
    return (int(x), int(y), vals, int(colors[vals[0] - 1]))


def check_scan(op: dict, answer, colors: np.ndarray, memo: dict | None = None) -> list[str]:
    """op: kind (count/stream/find), family, box.  answer: plain data.

    ``memo`` keeps direct sweeps across ops on the same (family, colouring, box).
    """
    fam, kind, box = op["family"], op["kind"], op.get("box")
    memo = {} if memo is None else memo
    key = (fam, op["coloring"], box)
    if key not in memo:
        memo[key] = direct_witnesses(colors, fam, box)
    xs, ys = memo[key]
    label = f"{kind} {fam} on {op['coloring']}"
    if kind == "count":
        if answer != xs.size:
            return [f"{label}: count {answer}, direct count {xs.size}"]
        return []
    if kind == "find":
        want = witness_tuple(colors, fam, xs[0], ys[0]) if xs.size else None
        if answer != want:
            return [f"{label}: first witness {answer}, direct {want}"]
        return []
    want = [witness_tuple(colors, fam, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    if answer != want:
        diff = next((i for i, (a, b) in enumerate(zip(answer, want)) if a != b), min(len(answer), len(want)))
        return [f"{label}: stream of {len(answer)} differs from direct {len(want)} at index {diff}"]
    return []


# ---- reduce ----


def substitution(c) -> tuple[tuple[int, ...], int]:
    """(u, b) by the documented rule: the non-zero rational root of p, then q.

    p(t) = sum_l c_l (1 + l t)^2; q replaces the last addend by
    c_k (1 + 2k t)^2.  Both have zero constant term, so the non-zero root is
    -alpha/beta.  u_l = d + l*num (u_k = d + 2k*num for q); a zero cross sum
    is repaired by flipping one entry, a negative one by negating u.
    """
    c = tuple(int(v) for v in c)
    k = len(c)
    for tag in ("p", "q"):
        alpha = 2 * sum(l * cl for l, cl in enumerate(c, 1))
        beta = sum(l * l * cl for l, cl in enumerate(c, 1))
        if tag == "q":
            alpha += 2 * k * c[-1]
            beta += 3 * k * k * c[-1]
        if alpha == 0 or beta == 0:
            continue
        t = Fraction(-alpha, beta)
        d, num = t.denominator, t.numerator
        u = [d + l * num for l in range(1, k + 1)]
        if tag == "q":
            u[-1] = d + 2 * k * num
        if len(set(u)) != k:
            continue
        s = sum(cl * ul for cl, ul in zip(c, u))
        if s == 0:
            for idx in range(k):
                cand = list(u)
                cand[idx] = -cand[idx]
                s2 = s - 2 * c[idx] * u[idx]
                if u[idx] != 0 and len(set(cand)) == k and s2 != 0:
                    u, s = cand, s2
                    break
            else:
                continue
        if s < 0:
            u, s = [-v for v in u], -s
        return tuple(u), 2 * s
    raise ValueError(f"no substitution for {c}")


def first_solution(c, colors) -> tuple | None:
    """First usable (X, Y) over chi itself, as (a, colour, (bX, bY)).

    A lifted witness lies on multiples of b, (x, y) = (bX, bY), and its
    values bX, b^2XY, b(X+Y), b(X+u_l Y) carry the colours chi(X), chi(bXY),
    chi(X+Y), chi(X+u_l Y); lex order on (x, y) is lex order on (X, Y).
    """
    u, b = substitution(c)
    n = len(colors)
    for x in range(1, n + 1):
        if b * x > n:
            break
        for y in range(1, n + 1):
            if x + y > n or b * x * y > n:
                break
            vals = [x, b * x * y, x + y] + [x + ul * y for ul in u]
            if any(not 1 <= v <= n for v in vals):
                continue
            col = colors[x - 1]
            if any(colors[v - 1] != col for v in vals):
                continue
            a = (b * x * y,) + tuple(x + ul * y for ul in u)
            if len(set(a)) != len(a):
                continue
            return a, int(col), (b * x, b * y)
    return None


def check_solution(c, colors, a, color) -> list[str]:
    c = tuple(int(v) for v in c)
    errors = []
    if len(a) != len(c) + 1:
        return [f"{c}: {len(a)} values, expected {len(c) + 1}"]
    if any(v < 1 or v > len(colors) for v in a):
        errors.append(f"{c}: value outside [1..{len(colors)}] in {a}")
        return errors
    if len(set(a)) != len(a):
        errors.append(f"{c}: values {a} are not distinct")
    if sum(cl * al * al for cl, al in zip(c, a[1:])) != a[0]:
        errors.append(f"{c}: {a} does not solve the equation")
    cols = {int(colors[v - 1]) for v in a}
    if cols != {color}:
        errors.append(f"{c}: values {a} carry colours {sorted(cols)}, claimed {color}")
    return errors


def check_reduce(op: dict, answer, colors) -> list[str]:
    c = op["c"]
    errors = []
    u, b = substitution(c)
    if tuple(answer["u"]) != u or answer["b"] != b:
        errors.append(f"{c}: setup u={answer['u']} b={answer['b']}, expected u={u} b={b}")
    want = first_solution(c, colors)
    sol = answer["solution"]
    if sol is None:
        if want is not None:
            errors.append(f"{c} on {op['coloring']}: None, but {want} solves it")
        return errors
    errors += check_solution(c, colors, tuple(sol[0]), sol[1])
    if want is None or (tuple(sol[0]), sol[1], tuple(sol[2])) != want:
        errors.append(f"{c} on {op['coloring']}: solution {sol}, first by direct search {want}")
    return errors


def check_construction(answer, colors) -> list[str]:
    if answer is None:
        return ["construction ended without a witness"]
    x, y, color = answer
    n = len(colors)
    vals = (x, x + y, x * y)
    if x < 1 or y < 1 or max(vals) > n:
        return [f"construction witness {vals} outside [1..{n}]"]
    cols = {int(colors[v - 1]) for v in vals}
    if cols != {color}:
        return [f"construction witness {vals} carries colours {sorted(cols)}, claimed {color}"]
    return []


# ---- store ----


def canon(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def latest_record(lines: list[str], kind: str, fingerprint: str, params: dict):
    """The last raw line matching (kind, fingerprint, params), parsed."""
    want = canon(params)
    best = None
    for line in lines:
        obj = json.loads(line)
        if obj["kind"] == kind and obj["fingerprint"] == fingerprint and canon(obj["params"]) == want:
            best = obj
    return best


def check_lookup(answer, lines: list[str], key: dict) -> list[str]:
    want = latest_record(lines, key["kind"], key["fingerprint"], key["params"])
    if want is None:
        return [f"lookup {key['kind']} {key['params']}: nothing was written for these params"]
    if answer is None:
        return [f"lookup {key['kind']} {key['params']}: returned nothing"]
    got = {k: answer[k] for k in ("kind", "fingerprint", "params", "payload")}
    if got != {k: want[k] for k in got}:
        return [f"lookup {key['kind']} {key['params']}: returned {got['params']} {str(got['payload'])[:80]}"]
    return []


def check_roundtrip(answer: dict, source: np.ndarray) -> list[str]:
    """answer: digests of the loaded array, the RLE runs and their decode."""
    errors = []
    if answer["loaded"] != digest(source):
        errors.append(f"{answer['name']}: loaded colouring differs from the array saved")
    runs = 1 + int(np.count_nonzero(np.diff(source)))
    if answer["runs"] != runs:
        errors.append(f"{answer['name']}: {answer['runs']} RLE runs, expected {runs}")
    if answer["decoded"] != digest(source):
        errors.append(f"{answer['name']}: RLE runs do not decode to the colouring")
    if answer["roundtrip"] != digest(source):
        errors.append(f"{answer['name']}: from_rle(to_rle) differs from the colouring")
    return errors


def digest(arr: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int32).tobytes()).hexdigest()


def decode_runs(runs) -> np.ndarray:
    """Plain-numpy decode of [[colour, length], ...]."""
    a = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    return np.repeat(a[:, 0], a[:, 1]).astype(np.int32)
