#!/usr/bin/env python3
"""Run the generation pipeline on a bundled example and narrate the steps.

Usage:
  python scripts/run_pipeline.py --example i3
  python scripts/run_pipeline.py --example chain3_z3 --show-certificates 3
"""

import argparse

from invgeom import (
    build_example,
    cayley_metric,
    cayley_self_action,
    coboundedness_constant,
    extract_generators,
    orbit_inequalities,
    orbit_map_qi,
    properness_witness,
    validate_action,
)
from invgeom.action import coset_cover_holds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--example", default="i3")
    parser.add_argument("--show-certificates", type=int, default=2)
    args = parser.parse_args()

    built = build_example(args.example)
    m = built.monoid
    gens = built.quasi_generators
    print(f"{built.spec.name}: {built.spec.description}")
    print(f"order {m.order}, {len(m.idempotents)} idempotents, "
          f"{len(m.lclasses)} L-classes")

    action = cayley_self_action(m, gens)
    issues = validate_action(action)
    print(f"action axioms: {'ok' if not issues else issues}")

    x1 = min(action.identity_fiber())
    t = coboundedness_constant(action, x1)
    print(f"cobounded from basepoint {m.element_label(x1)} with T = {t}")

    extraction = extract_generators(action, x1, t)
    print(
        f"extracted {len(extraction.generators)} generators within "
        f"displacement {extraction.threshold}; closure is the whole monoid"
    )
    for cert in extraction.certificates[: args.show_certificates]:
        word = " * ".join(m.element_label(u) for u in reversed(cert.factors))
        print(f"  {m.element_label(cert.element)} = {word}")

    cover = properness_witness(action, x1, extraction.threshold)
    assert coset_cover_holds(m, cover, extraction.generators)
    print(f"properness cover by {len(cover)} idempotent cosets: "
          + ", ".join(m.element_label(f) for f in cover))

    word = cayley_metric(m, gens)
    qi = orbit_map_qi(action, x1, word)
    print(
        f"orbit map QI: L = {qi.mult}, C = {qi.add}, "
        f"coarse radius {qi.coarse_radius}, "
        f"order-preserving: {qi.order_preserving}"
    )
    bad = orbit_inequalities(action, x1, word)
    print(f"two-sided word/displacement bounds: "
          f"{'all hold' if not bad else bad}")

    print(f"word metric components: {len(word.components)} "
          f"(= {len(m.lclasses)} L-classes)")


if __name__ == "__main__":
    main()
