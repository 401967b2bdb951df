"""Height groups: lattice quotients of sampled return vectors.

The same tiling carries different height groups for different reference
points; the group is the quotient of the cross-difference lattice by the
same-color difference lattice, both sampled on growing windows until the
bases stabilize.

Run with: python3 demos/05_height_groups.py
"""

from fractions import Fraction

from subtiling import cli, lattices, suspension

spec = cli.corpus_lookup("aba-left")
system = suspension.SuspensionSystem(spec.substitution())

left = suspension.left_endpoint_points(system)
res = lattices.height_group(system, left)
print("left endpoints:")
print("  cross lattice:", res.sup.describe())
print("  same-color lattice:", res.sub.describe())
print("  height group:", lattices.quotient(res.sup, res.sub),
      "stable at window", res.stabilized_at)

# the control points (1/3, 0) as integer vectors over their denominator
gamma = suspension.control_points(system, (2, 1))
res2 = lattices.height_group(system, gamma)
print("control points", gamma, "= (1/3, 0):")
print("  cross lattice:", res2.sup.describe())
print("  height group:", lattices.quotient(res2.sup, res2.sub))

# eventual return vectors: how many expansions until a vector, an
# integer vector over a denominator, lands in the same-color lattice
tm = suspension.SuspensionSystem(cli.corpus_lookup("thue-morse")
                                 .substitution())
z = lattices.module_from_int_rows([[1]], 1, 1)    # the integers
for q in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)):
    k = lattices.eventual_membership((q.numerator,), q.denominator, z,
                                     tm.field)
    print(f"least k with 2^k * {q} integral:", k)

# eventual return reads the lattices of a height group, as an analysis
# reads them from its report
check = lattices.differences_in_return_module(system, res)
print("least powers returning the cross generators (left endpoints):",
      check.witnesses, f"(None: not within {lattices.POWER_BOUND})")
