"""Pure discreteness by two routes: overlap classes and balanced pairs.

Run with: python3 demos/06_pure_discreteness.py
"""

from subtiling import cli, coincidence, spectrum, suspension

for name in ("thue-morse", "fibonacci", "rauzy2-left"):
    spec = cli.corpus_lookup(name)
    sub = spec.substitution()
    system = suspension.SuspensionSystem(sub)
    # all zero: integer vectors over the denominator 1
    refs = suspension.left_endpoint_points(system)
    # the closure and its replay run on one walk of the reference points
    walk = coincidence.Walk(system, refs)

    overlap = spectrum.overlap_coincidence(walk, system.window(64))
    balanced = spectrum.balanced_pairs(sub)
    verdict = spectrum.spectral_verdict(overlap.status, balanced.status,
                                        advisory=False)

    print(f"{name}:")
    print(f"  overlap classes: {overlap.certificate.get('total_classes')} "
          f"-> {overlap.status}")
    if overlap.status == "FAILS":
        stuck = overlap.certificate["coincidence_free_closed_set"]
        print(f"  coincidence-free closed set of {len(stuck)} classes, "
              f"replays: "
              f"{spectrum.replay_overlap_certificate(walk, overlap.certificate)}")
    print(f"  balanced pairs: {balanced.status} "
          f"({balanced.certificate.get('irreducible_pairs')} pairs, "
          f"bound hit: {balanced.bound_hit})")
    print(f"  spectral verdict: {verdict['status']}  "
          f"[{verdict['agreement']}]")
    print()
