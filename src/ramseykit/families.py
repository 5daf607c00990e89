"""Pattern families: finite lists of integer polynomial terms over shared variables.

A family P = {f_1, ..., f_k} in s' variables is "hit" by an assignment
x in [1..N]^s' when every term value f_i(x) lands in [1..N]; it is
monochromatic under a coloring when all those values share one color.
This module only builds and serializes families; searching happens in
``witnesses`` and ``search``.

The generator ``prefix_product_family`` produces the product-plus-shifted-
function shape {x0...xs} u {x0...xj + f(x_{j+1},...,x_i)} that drives the
multiplicative results; ``reduction_family`` produces the pattern whose
witnesses decode into solutions of quadratic equations (see ``reduction``).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .polynomials import IntPoly, parse_poly

__all__ = [
    "PatternFamily",
    "prefix_product_family",
    "preset_family",
    "preset_from_string",
    "reduction_family",
    "PRESET_NAMES",
]

PRESET_NAMES = ("schur", "vdw", "geometric", "x_xp1", "x_y_3xmy", "xyxy")


# JSON read as written: a count is an integer, not a bool (an int subclass)
# or a float, and a flag is true or false, not any truthy value


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_ints(values, what: str) -> list[int]:
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return list(values)


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


@functools.lru_cache(maxsize=256)
def _parse_terms(num_vars: int, texts: tuple[str, ...]) -> tuple[IntPoly, ...]:
    # IntPoly is immutable, so every family built from these texts can share them
    return tuple(parse_poly(t, num_vars) for t in texts)


@functools.lru_cache(maxsize=256)
def _fingerprint(num_vars: int, terms: tuple[IntPoly, ...], distinct_required: bool) -> str:
    ident = {"num_vars": num_vars, "terms": sorted(map(str, terms)),
             "distinct_required": distinct_required}
    return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class PatternFamily:
    """Immutable ordered term list with set semantics (duplicates dropped)."""

    num_vars: int
    terms: tuple[IntPoly, ...]
    name: str | None = None
    distinct_required: bool = False

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("a family needs at least one variable")
        seen: list[IntPoly] = []
        for t in self.terms:
            if not isinstance(t, IntPoly):
                raise TypeError(f"family terms must be IntPoly, got {type(t).__name__}")
            if t.num_vars != self.num_vars:
                raise ValueError(
                    f"term '{t}' has {t.num_vars} variables, family declares {self.num_vars}"
                )
            if t not in seen:
                seen.append(t)
        if not seen:
            raise ValueError("a family needs at least one term")
        object.__setattr__(self, "terms", tuple(seen))

    @classmethod
    def from_texts(
        cls,
        num_vars: int,
        terms: Iterable[str],
        name: str | None = None,
        distinct_required: bool = False,
    ) -> "PatternFamily":
        texts = tuple(terms)
        for t in texts:
            if not isinstance(t, str):
                raise TypeError(f"family terms must be texts, got {type(t).__name__}")
        return cls(num_vars, _parse_terms(num_vars, texts), name, distinct_required)

    def with_terms(self, *extra: IntPoly | str, name: str | None = None) -> "PatternFamily":
        """Extended family over the same variables (for antitonicity checks)."""
        more = tuple(
            t if isinstance(t, IntPoly) else parse_poly(t, self.num_vars) for t in extra
        )
        return PatternFamily(
            self.num_vars,
            self.terms + more,
            name or (f"{self.name}+ext" if self.name else None),
            self.distinct_required,
        )

    # ---- box completeness ----

    def bounded_vars(self) -> frozenset[int]:
        """Variables forced <= N by admissibility over positive assignments.

        A variable is bounded when it appears in some term all of whose
        coefficients are positive: over x >= 1 that term's value is at least
        the variable itself, so the value constraint pins the variable down.
        Cancelling terms like x0-x1 bound nothing on their own.
        """
        out: set[int] = set()
        for t in self.terms:
            if t.all_coeffs_positive():
                out |= t.used_vars()
        return frozenset(out)

    def box_complete(self) -> bool:
        """True when every variable is bounded, so [1..N]^s covers all instances."""
        return self.bounded_vars() == frozenset(range(self.num_vars))

    # ---- identity / serialization ----

    def canonical_texts(self) -> tuple[str, ...]:
        return tuple(str(t) for t in self.terms)

    def fingerprint(self) -> str:
        """Canonical-form hash: term order and display name do not matter."""
        return _fingerprint(self.num_vars, self.terms, self.distinct_required)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "num_vars": self.num_vars,
            "terms": list(self.canonical_texts()),
            "distinct_required": self.distinct_required,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PatternFamily":
        if not isinstance(data, dict):
            raise ValueError(f"a family must be a JSON object, got {data!r}")
        for key in ("num_vars", "terms"):
            if key not in data:
                raise ValueError(f"family is missing the key {key!r}")
        num_vars, terms = data["num_vars"], data["terms"]
        distinct, name = data.get("distinct_required", False), data.get("name")
        _json_int(num_vars, "family 'num_vars'")
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ValueError(f"family 'terms' must be a list of strings, got {terms!r}")
        _json_bool(distinct, "family 'distinct_required'")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"family 'name' must be a string or null, got {name!r}")
        return cls.from_texts(num_vars, terms, name, distinct)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PatternFamily":
        return cls.from_json(json.loads(Path(path).read_text()))

    def __str__(self) -> str:
        label = self.name or "family"
        return f"{label}({self.num_vars} vars): {{{', '.join(self.canonical_texts())}}}"


def _check_vanishes_in_last_var(f: IntPoly) -> None:
    """The generator hypothesis: f(..., 0) = 0 for every prefix.

    Symbolically: f is zero, or every monomial carries the last variable.
    """
    if f.is_zero():
        return
    for exps, _ in f.monomials:
        if exps[-1] == 0:
            raise ValueError(
                f"'{f}' has a monomial free of its last variable x{f.num_vars - 1}; "
                "the shifted-function hypothesis needs a zero constant term there"
            )


def prefix_product_family(
    function_sets: Sequence[Sequence[IntPoly | str]], name: str | None = None
) -> PatternFamily:
    """Family {x0..xs} u {x0..xj + f(x_{j+1},..,x_i) : 0 <= j < i <= s, f in F[i-j]}.

    ``function_sets[d]`` lists the shift functions of arity d+1, so s is the
    number of sets (arities 1..s).  Each function must vanish when its last
    variable is zero; strings are parsed with the arity's variable count.
    """
    s = len(function_sets)
    if s < 1:
        raise ValueError("s must be >= 1")
    fsets: list[list[IntPoly]] = []
    for d, fs in enumerate(function_sets):
        arity = d + 1
        row = []
        for f in fs:
            p = parse_poly(f, arity) if isinstance(f, str) else f
            if p.num_vars != arity:
                raise ValueError(f"function '{p}' should have {arity} variables")
            _check_vanishes_in_last_var(p)
            row.append(p)
        fsets.append(row)

    nv = s + 1
    full_product = IntPoly(nv, {tuple(1 for _ in range(nv)): 1})
    terms: list[IntPoly] = [full_product]
    for j in range(s):
        prefix = IntPoly(nv, {tuple(1 if v <= j else 0 for v in range(nv)): 1})
        for i in range(j + 1, s + 1):
            for f in fsets[i - j - 1]:
                terms.append(prefix + f.shift_vars(j + 1, nv))
    return PatternFamily(nv, tuple(terms), name or f"prefix-product:s={s}")


def preset_family(name: str, k: int | None = None) -> PatternFamily:
    """Named standard families; vdw and geometric take the length parameter k,
    and the other presets refuse one."""
    if k is not None and name in ("schur", "x_xp1", "x_y_3xmy", "xyxy"):
        raise ValueError(f"preset {name!r} takes no parameter, got {k}")
    if name == "schur":
        return PatternFamily.from_texts(2, ["x0", "x1", "x0 + x1"], "schur")
    if name == "vdw":
        if k is None:
            raise ValueError("vdw needs k (progression length)")
        if k < 2:
            raise ValueError("vdw needs k >= 2")
        terms = ["x0"] + [f"x0 + {m}*x1" if m > 1 else "x0 + x1" for m in range(1, k)]
        return PatternFamily.from_texts(2, terms, f"vdw:{k}")
    if name == "geometric":
        if k is None:
            raise ValueError("geometric needs k (ratio power count)")
        if k < 1:
            raise ValueError("geometric needs k >= 1")
        terms = ["x0"] + [f"x0*x1^{m}" if m > 1 else "x0*x1" for m in range(1, k + 1)]
        return PatternFamily.from_texts(2, terms, f"geometric:{k}")
    if name == "x_xp1":
        return PatternFamily.from_texts(1, ["x0", "x0 + 1"], "x_xp1")
    if name == "x_y_3xmy":
        return PatternFamily.from_texts(2, ["x0", "x1", "3*x0 - x1"], "x_y_3xmy")
    if name == "xyxy":
        return PatternFamily.from_texts(2, ["x0", "x0 + x1", "x0*x1"], "xyxy")
    raise ValueError(f"unknown preset {name!r} (have {', '.join(PRESET_NAMES)})")


def preset_from_string(spec: str) -> PatternFamily:
    """Parse 'schur', 'vdw:3', 'geometric:2', ... into the named family; a
    parameter after ':' must be ASCII digits, as in coloring files, so
    'schur:', 'vdw: 3', 'vdw:+3' and 'vdw:1_0' are refused."""
    name, colon, karg = spec.partition(":")
    k = None
    if colon:
        if not (karg.isascii() and karg.isdigit()):
            raise ValueError(f"bad preset parameter in {spec!r}")
        k = int(karg)
    return preset_family(name, k)


def reduction_family(u: Sequence[int], name: str | None = None) -> PatternFamily:
    """Family {x0, x0*x1, x0+x1, x0+u_1*x1, ..., x0+u_k*x1}, duplicates removed."""
    u = tuple(int(v) for v in u)
    if not u:
        raise ValueError("u must be non-empty")
    x0 = IntPoly.var(2, 0)
    x1 = IntPoly.var(2, 1)
    terms = [x0, x0 * x1, x0 + x1]
    for v in u:
        terms.append(x0 + v * x1)
    label = name or ("reduction:" + ",".join(str(v) for v in u))
    return PatternFamily(2, tuple(terms), label)
