"""The suspension tiling: exact lengths, patches, control points.

Run with: python3 demos/03_suspension_geometry.py
"""

from fractions import Fraction

from subtiling import cli, spectrum, suspension

spec = cli.corpus_lookup("rauzy2-gamma")
system = suspension.SuspensionSystem(spec.substitution())

print("expansion minimal polynomial:", list(system.field.minpoly))
print("prototile lengths (coordinates in 1, beta, beta^2):")
for tok, length in zip(spec.letters, system.lengths):
    print(f"  {tok}: {[str(c) for c in length.coords]}")

# the control points are integer vectors over their least common
# denominator, as every later step takes them
refs = suspension.control_points(system, spec.tilemap)
vectors, denom = refs
print(f"control points of the subtile map (coordinates times {denom}):")
for tok, c in zip(spec.letters, vectors):
    print(f"  {tok}: {list(c)}, exactly {spectrum.format_shift(c, denom)}")
print("admissible:", suspension.is_admissible(system, refs))

# sigma^2(a) laid out from 0; a start is an integer vector over the
# lengths' common denominator
patch = system.patch_from_word(system.sub.iterate(1, 2),
                               (0,) * system.field.degree)
print(f"twice-inflated 'a' prototile (boundaries times {patch.denom}):")
for k, color in enumerate(patch.colors):
    print(f"  {spec.token(color)} at {list(patch.points[k])}, exactly "
          f"{spectrum.format_shift(patch.points[k], patch.denom)}")

window = (Fraction(-6), Fraction(6))
covering = system.patch_covering(*window)
points = suspension.reference_point_sets(covering, refs, window)
print(f"reference points in [{window[0]}, {window[1]}] "
      f"(coordinates times {points.denom}):")
for tok, indices, pts in zip(spec.letters, points.indices, points.points):
    print(f"  {tok}: tiles {list(indices)} at {[list(x) for x in pts]}")
per_color, cross = suspension.return_vectors(points)
print("distinct same-color return vectors:",
      sum(len(d) for d in per_color))
print("distinct cross differences:", len(cross))
