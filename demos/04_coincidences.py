"""Strong and simultaneous coincidence, with witness replay.

The three-letter-rule system a -> aba, b -> bab fails the word-level test
outright (swapping the letters commutes with the rules), yet with control
points from a subtile map its prototiles share a tile after one step.

Run with: python3 demos/04_coincidences.py
"""

from subtiling import cli, coincidence, suspension

spec = cli.corpus_lookup("aba-gamma")
sub = spec.substitution()
system = suspension.SuspensionSystem(sub)

word_level = coincidence.prefix_strong(sub)
print("word-level verdict for (a, b):", word_level[(1, 2)].status)
print("  certificate:", word_level[(1, 2)].certificate)

refs = suspension.control_points(system, spec.tilemap)
tile_level = coincidence.geometric_strong(system, refs)
verdict = tile_level[(1, 2)]
w = verdict.witness
print("tile-level verdict for (a, b):", verdict.status)
print(f"  shared tile: color {spec.token(w.color)}, level {w.level}, "
      f"shift {[str(c) for c in w.shift.coords]}")

print("replay on the inflation tree:",
      coincidence.verify_witness(system, refs, w))

sim = coincidence.simultaneous(system, refs)
print("simultaneous coincidence:", sim.status, "at level",
      sim.witness.level)

both = coincidence.prefix_simultaneous(cli.corpus_lookup("rauzy")
                                       .substitution())
print("rauzy common balanced prefix:", both.witness)
