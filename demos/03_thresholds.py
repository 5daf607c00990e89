"""
Avoiding colorings and exact thresholds
=======================================

For a family P and r colors, T(P, r) is the least N such that every
r-coloring of 1..N contains a monochromatic instance of P.  Below the
threshold the search produces an avoiding coloring as a certificate;
at the threshold it proves exhaustion.
"""

from ramseykit import exists_avoiding, preset_family, threshold, verify_certificate
from ramseykit.bruteforce import naive_threshold

schur = preset_family("schur")

# At N = 4 two colors still suffice to dodge every sum triple.
cert = exists_avoiding(schur, 2, 4)
print("avoiding 2-coloring of 1..4:", cert.coloring)
print("certificate verifies:", verify_certificate(cert))

# One more integer and the dodge becomes impossible.
print("avoider at N = 5?", exists_avoiding(schur, 2, 5))

# threshold() walks N upward, reusing the instance index, with canonical
# color-introduction order so symmetric colorings are never revisited.
res = threshold(schur, 2, 20)
print("\nsum triple, 2 colors:", res.describe(), f"({res.nodes} nodes)")

# Three colors: the same walk, still exact.
res3 = threshold(schur, 3, 20)
print("sum triple, 3 colors:", res3.describe(), f"({res3.nodes} nodes)")

# An independent enumerator with no pruning and no symmetry breaking
# reproduces the value from scratch.
print("naive cross-check (r=2):", naive_threshold(schur, 2, 20))

# 3-term arithmetic progressions {x, x+y, x+2y}.
vdw = preset_family("vdw", 3)
print("\n3-term progressions, 2 colors:", threshold(vdw, 2, 20).describe())

# The product/sum triple {x, x+y, xy} collapses remarkably early.
xyxy = preset_family("xyxy")
print("product/sum triple, 2 colors:", threshold(xyxy, 2, 12).describe())

# If the budget runs out before exhaustion, the result is an honest
# lower bound (exact=False) rather than a guess.
pair = preset_family("x_xp1")
res = threshold(pair, 2, 12)
print("\n{x, x+1}, 2 colors, capped at N = 12:", res.describe(),
      "(exact)" if res.exact else "(lower bound: alternating colors dodge forever)")
