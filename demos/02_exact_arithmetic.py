"""Exact arithmetic in Q(beta): certified signs and the Pisot test.

Run with: python3 demos/02_exact_arithmetic.py
"""

from fractions import Fraction

from subtiling import algebraic, polys

# the golden mean field from the fibonacci matrix
cp = algebraic.char_poly([[1, 1], [1, 0]])
print("characteristic polynomial (ascending):", cp)
field = algebraic.perron_factor(cp)
print("minimal polynomial of the dominant root:", list(field.minpoly))
# beta lies in [num_lo / den, num_hi / den], kept as three ints
print("isolating interval (num_lo, num_hi, den):",
      (field.num_lo, field.num_hi, field.den))

b = field.beta()
print("beta^2 == beta + 1:", b * b == b + 1)
print("1/beta == beta - 1:", b.inverse() == b - 1)

x = 10 * b - 16
print("sign of 10*beta - 16:", x.sign())
field.ensure_width(Fraction(1, 10**12))
print("interval at most 10^-12 wide after refinement:",
      (field.num_hi - field.num_lo) * 10**12 <= field.den)

print("pisot (golden mean):", algebraic.is_pisot(field))

# a Salem-type polynomial keeps conjugates on the unit circle
salem = [1, -1, -1, -1, 1]
num_lo, num_hi, den = polys.isolate_largest_real_root(salem)
salem_field = algebraic.NumberField(salem, Fraction(num_lo, den),
                                    Fraction(num_hi, den))
print("salem quartic has circle conjugates:",
      algebraic.count_roots_in_open_unit_disk(salem) is None)
print("pisot (salem quartic):", algebraic.is_pisot(salem_field))

# root counting in the open unit disk is exact
print("roots of x^3 - x - 1 inside the unit circle:",
      algebraic.count_roots_in_open_unit_disk([-1, -1, 0, 1]))
