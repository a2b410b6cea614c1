"""The build-i6 op: load a generator file, build the monoid, report samples.

    python3 child.py build GENS_FILE SAMPLES_FILE OUT_FILE

Writes the order and, for each sampled index pair (a, b), the images of
a, b, a*b and a^-1, so the parent can check them against ``compose`` and
``invert`` outside the timed child.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invgeom import fileio, generate_monoid  # noqa: E402


def build(gens_path, samples_path, out_path):
    n, gens = fileio.load_generator_file(gens_path)
    monoid = generate_monoid(gens, ground_size=n)
    pairs = json.loads(Path(samples_path).read_text())
    elems = monoid.elements
    samples = [
        [
            list(elems[a].image),
            list(elems[b].image),
            list(elems[monoid.product[a, b]].image),
            list(elems[monoid.inverse[a]].image),
        ]
        for a, b in pairs
    ]
    Path(out_path).write_text(
        json.dumps({"order": monoid.order, "samples": samples})
    )
    return 0


def main(argv):
    if len(argv) != 4 or argv[0] != "build":
        print(__doc__, file=sys.stderr)
        return 2
    return build(*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
