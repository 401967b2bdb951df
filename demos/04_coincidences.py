"""Strong and simultaneous coincidence, with witness replay.

The three-letter-rule system a -> aba, b -> bab fails the word-level test
outright (swapping the letters commutes with the rules), yet with control
points from a subtile map its prototiles share a tile after one step.

Run with: python3 demos/04_coincidences.py
"""

from subtiling import cli, coincidence, spectrum, suspension

spec = cli.corpus_lookup("aba-gamma")
sub = spec.substitution()
system = suspension.SuspensionSystem(sub)

word_level = coincidence.prefix_strong(sub)
print("word-level verdict for (a, b):", word_level[(1, 2)].status)
print("  certificate:", word_level[(1, 2)].certificate)

# the control points (1/3, 0), as integer vectors over their denominator
refs = suspension.control_points(system, spec.tilemap)
print("control points:", refs)
# one walk holds the integer setting of these reference points: the
# geometric checks search on it and their witnesses replay on it
walk = coincidence.Walk(system, refs)
tile_level = coincidence.geometric_strong(walk)
verdict = tile_level[(1, 2)]
w = verdict.witness
print("tile-level verdict for (a, b):", verdict.status)
# the shift is an integer vector over the witness's denominator
print(f"  shared tile: color {spec.token(w.color)}, level {w.level}, "
      f"shift {spectrum.format_shift(w.shift, w.denom)}")

print("replay on the inflation tree:", coincidence.verify_witness(walk, w))

# a report's witnesses replay on the one walk of the report, whose
# denominator is theirs
sim = coincidence.simultaneous(walk)
print("both replayed on one walk:",
      all(coincidence.verify_witness(walk, x) for x in (w, sim.witness)))

print("simultaneous coincidence:", sim.status, "at level",
      sim.witness.level)

both = coincidence.prefix_simultaneous(cli.corpus_lookup("rauzy")
                                       .substitution())
print("rauzy common balanced prefix:", both.witness)
