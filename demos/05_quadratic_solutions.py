"""
From multiplicative patterns to quadratic equations
===================================================

Whatever r-coloring you pick, the equation a1^2 - a2^2 = a0 has a
solution with a0, a1, a2 distinct, positive, and all the same color.
The trick is a change of variables: find integers u with
sum(c_l * u_l^2) = 0 and set b = 2 * sum(c_l u_l); then any monochromatic
instance of {X, X+Y, b*X*Y, X + u_l*Y} gives a0 = b*X*Y and a_l = X + u_l*Y.
"""

from ramseykit import (
    Coloring,
    greedy_avoider,
    preset_family,
    quadratic_setup,
    solve_quadratic,
    verify_quad_solution,
)

# The shift vector u is computed in exact rational arithmetic from the
# coefficients alone.  For a1^2 - a2^2 = a0 it is tiny:
c = (1, -1)
rd = quadratic_setup(c)
print("coefficients:", c)
print("shift vector u:", rd.u, " scale b:", rd.b)
print("identity sum(c*u^2):", sum(ci * ui * ui for ci, ui in zip(c, rd.u)))

# Solve on the all-one coloring first (every solution is monochromatic,
# but the machinery still has to produce distinct positive entries).
sol = solve_quadratic(c, Coloring.solid(200))
a = sol.a
print("\nall-one coloring:   a =", a, " check:", a[1] ** 2 - a[2] ** 2, "=", a[0])

# Now something adversarial: a 2-coloring of 1..200 built greedily to
# avoid the unrelated pattern {x, x+7}.  The solver neither knows nor
# cares how the coloring was made.
cert = greedy_avoider(preset_family("x_xp1"), 2, 200, "first-fit")
chi = cert.to_coloring()
sol = solve_quadratic(c, chi)
a = sol.a
print("greedy 2-coloring:  a =", a, " all color", sol.color)

# An independent verifier re-evaluates the equation, the coloring, and
# distinctness without sharing any solver code.
print("verifier:", bool(verify_quad_solution(c, chi, sol)))

# Longer equations work the same way: a1^2 + a2^2 - 2*a3^2 = a0 needs a
# larger shift vector and scale, hence a larger domain.
c3 = (1, 1, -2)
rd3 = quadratic_setup(c3)
print("\ncoefficients:", c3, "-> u =", rd3.u, " b =", rd3.b)
sol3 = solve_quadratic(c3, Coloring.solid(3000))
a = sol3.a
print("solution: a =", a)
print("check:", a[1] ** 2, "+", a[2] ** 2, "- 2 *", a[3] ** 2, "=",
      a[1] ** 2 + a[2] ** 2 - 2 * a[3] ** 2, "=", a[0])
