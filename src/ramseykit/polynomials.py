"""Exact multivariate integer polynomials.

Representation: a polynomial in ``num_vars`` variables x0..x{num_vars-1} is a
mapping from exponent tuples to nonzero integer coefficients, held here in a
canonical sorted form (graded lex, highest total degree first, ties broken by
exponent tuple descending).  That order makes printing deterministic, so two
equal polynomials always render to the same text and hash the same.

Text syntax (used by family files and the CLI): integer coefficients,
variables ``x0..x{k}``, operators ``+ - * ^``, e.g. ``x0*x1 + x2^2`` or
``3*x0 - x1^2``.  Parsing and printing round-trip through canonical form.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]

__all__ = [
    "IntPoly",
    "parse_poly",
]


def _sort_key(exps: Exponents):
    # graded lex descending: compare (total degree, exponent tuple), largest first
    return (-sum(exps), tuple(-e for e in exps))


class IntPoly:
    """Immutable integer polynomial in a fixed number of variables."""

    __slots__ = ("num_vars", "monomials", "_hash")

    def __init__(
        self,
        num_vars: int,
        coeffs: Mapping[Exponents, int] | Iterable[tuple[Exponents, int]] = (),
    ):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[Exponents, int] = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent tuple {exps} does not have {num_vars} entries")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            acc[exps] = acc.get(exps, 0) + int(c)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(
            self,
            "monomials",
            tuple(sorted(((e, c) for e, c in acc.items() if c != 0), key=lambda m: _sort_key(m[0]))),
        )
        object.__setattr__(self, "_hash", hash((num_vars, self.monomials)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, num_vars: int) -> "IntPoly":
        return cls(num_vars)

    @classmethod
    def const(cls, num_vars: int, c: int) -> "IntPoly":
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def var(cls, num_vars: int, i: int) -> "IntPoly":
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range for {num_vars} variables")
        exps = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, {exps: 1})

    # ---- ring structure ----

    def _coerce(self, other) -> "IntPoly":
        if isinstance(other, IntPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return IntPoly.const(self.num_vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPoly(self.num_vars, list(self.monomials) + list(other.monomials))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(self.num_vars, [(e, -c) for e, c in self.monomials])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(self.num_vars, [(e, c * other) for e, c in self.monomials])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: list[tuple[Exponents, int]] = []
        for ea, ca in self.monomials:
            for eb, cb in other.monomials:
                out.append((tuple(a + b for a, b in zip(ea, eb)), ca * cb))
        return IntPoly(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly.const(self.num_vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, IntPoly)
            and self.num_vars == other.num_vars
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return bool(self.monomials)

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.monomials

    def used_vars(self) -> frozenset[int]:
        """Indices of variables with a nonzero exponent somewhere."""
        out = set()
        for e, _ in self.monomials:
            for i, k in enumerate(e):
                if k:
                    out.add(i)
        return frozenset(out)

    def constant_term(self) -> int:
        zero = (0,) * self.num_vars
        for e, c in self.monomials:
            if e == zero:
                return c
        return 0

    def all_coeffs_positive(self) -> bool:
        return bool(self.monomials) and all(c > 0 for _, c in self.monomials)

    def max_abs_on_box(self, bounds: Sequence[int]) -> int:
        """Upper bound on |value| over 1 <= x_i <= bounds[i], as exact bignum.

        Used to decide whether vectorized int64 evaluation is overflow-safe.
        """
        if len(bounds) != self.num_vars:
            raise ValueError("bounds length mismatch")
        total = 0
        for exps, c in self.monomials:
            t = abs(c)
            for b, e in zip(bounds, exps):
                t *= max(1, b) ** e
            total += t
        return total

    # ---- evaluation / substitution ----

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {self.num_vars} variables"
            )
        total = 0
        for exps, c in self.monomials:
            t = c
            for v, e in zip(point, exps):
                if e:
                    t *= v**e
            total += t
        return total

    def shift_vars(self, offset: int, num_vars_out: int) -> "IntPoly":
        """Rename variable i to i + offset inside a wider variable space."""
        if offset < 0 or self.num_vars + offset > num_vars_out:
            raise ValueError("shifted variables fall outside the target space")
        out = []
        for exps, c in self.monomials:
            new = [0] * num_vars_out
            for i, e in enumerate(exps):
                new[i + offset] = e
            out.append((tuple(new), c))
        return IntPoly(num_vars_out, out)

    # ---- text form ----

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts: list[str] = []
        for exps, c in self.monomials:
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            mag = abs(c)
            if factors:
                body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self.num_vars}, '{self}')"


_TOKEN = re.compile(r"\s*(\d+|x\d+|[+\-*^])")


def _tokenize(text: str) -> list[str]:
    # tolerate the unicode minus and middle-dot product sign
    text = text.replace("−", "-").replace("·", "*").replace("⋅", "*")
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly(text: str, num_vars: int | None = None) -> IntPoly:
    """Parse the ``x0*x1 + x2^2`` syntax into canonical form.

    With num_vars omitted, the variable count is inferred from the largest
    index used (0 variables for a pure constant).
    """
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty polynomial text")
    max_idx = -1
    for t in toks:
        if t.startswith("x"):
            max_idx = max(max_idx, int(t[1:]))
    nv = max_idx + 1 if num_vars is None else num_vars
    if max_idx >= nv:
        raise ValueError(f"variable x{max_idx} out of range for {nv} variables")

    # each product folds into one coefficient and one exponent list, and the
    # products are summed into one monomial dict: no IntPoly until the end
    pos = 0
    acc: dict[Exponents, int] = {}

    def factor(coeff: int, exps: list[int]) -> int:
        """Multiply one ``atom[^k]`` into exps; returns the new coefficient."""
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of polynomial text")
        t = toks[pos]
        pos += 1
        if not (t.startswith("x") or t.isdigit()):
            raise ValueError(f"expected a number or variable, got {t!r}")
        k = 1
        if pos < len(toks) and toks[pos] == "^":
            pos += 1
            if pos >= len(toks) or not toks[pos].isdigit():
                raise ValueError("exponent must be a plain nonnegative integer")
            k = int(toks[pos])
            pos += 1
        if t.startswith("x"):
            exps[int(t[1:])] += k
            return coeff
        return coeff * int(t) ** k

    def term(sign: int) -> None:
        nonlocal pos
        exps = [0] * nv
        coeff = factor(sign, exps)
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            coeff = factor(coeff, exps)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff

    sign = 1
    if toks[pos] in ("+", "-"):
        sign = -1 if toks[pos] == "-" else 1
        pos += 1
    term(sign)
    while pos < len(toks):
        t = toks[pos]
        if t not in ("+", "-"):
            raise ValueError(f"expected + or - between terms, got {t!r}")
        pos += 1
        term(1 if t == "+" else -1)
    return IntPoly(nv, acc)
