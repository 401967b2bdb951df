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
tile_level = coincidence.geometric_strong(system, refs)
verdict = tile_level[(1, 2)]
w = verdict.witness
print("tile-level verdict for (a, b):", verdict.status)
# the shift is an integer vector over the witness's denominator
print(f"  shared tile: color {spec.token(w.color)}, level {w.level}, "
      f"shift {spectrum.format_shift(w.shift, w.denom)}")

print("replay on the inflation tree:",
      coincidence.verify_witness(system, refs, w))

# a report's witnesses replay on one integer setting, built once; its
# denominator covers the witnesses' as the walk's did
sim = coincidence.simultaneous(system, refs)
setting = coincidence.IntegerSetting(system, refs)
print("both replayed on one setting:",
      all(coincidence.verify_witness(system, refs, x, setting)
          for x in (w, sim.witness)))

print("simultaneous coincidence:", sim.status, "at level",
      sim.witness.level)

both = coincidence.prefix_simultaneous(cli.corpus_lookup("rauzy")
                                       .substitution())
print("rauzy common balanced prefix:", both.witness)
