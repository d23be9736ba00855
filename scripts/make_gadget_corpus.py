#!/usr/bin/env python3
"""Emit a seeded corpus of gadget instance files for `dissolab check <dir>`.

Writes clause-clique and doubled-clause gadgets for seeded 3-CNF formulas,
plus a few Independent-Set gadgets, each with its prediction sidecar so the
directory checker can re-verify everything from the files alone.
"""

import argparse
import os

from dissolab.corpus import random_cnf_corpus, random_graph_corpus
from dissolab.reductions import (
    gadget_diss_2alpha,
    gadget_diss_alpha,
    gadget_diss_alpha_plus_nus,
    render_gadget,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--formulas", type=int, default=10)
    parser.add_argument("--is-instances", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    written = 0
    for i, f in enumerate(random_cnf_corpus(args.formulas, 5, 4, args.seed)):
        for tag, builder in (("fig3", gadget_diss_2alpha), ("fig4", gadget_diss_alpha)):
            path = os.path.join(args.out_dir, f"{tag}_{i:03d}.dimacs")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_gadget(builder(f)))
            written += 1
    for i, g in enumerate(random_graph_corpus(args.is_instances, 5, args.seed + 1)):
        gi = gadget_diss_alpha_plus_nus(g, 1 + i % 3)
        path = os.path.join(args.out_dir, f"is_{i:03d}.dimacs")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_gadget(gi))
        written += 1
    print(f"wrote {written} instances to {args.out_dir}")
    print(f"verify with: dissolab check {args.out_dir}")


if __name__ == "__main__":
    main()
