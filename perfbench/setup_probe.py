"""What every CLI invocation pays before its verb runs: import ``nlie.cli``
in a fresh interpreter and parse the workload's input documents with
``nlie.io``.  ``run.py`` times this script from outside, start to exit.
It then runs the reference REFS times and prints their times as JSON, so
that ``run.py`` can take them out and scale the rest to reference speed.

Usage: python3 perfbench/setup_probe.py MANIFEST.json  (from the repo root)
"""

import json
import sys

sys.path.insert(0, "src")

import nlie.cli  # noqa: E402,F401
from nlie import io  # noqa: E402

REFS = 10

PARSERS = {
    "algebra": io.algebra_from_json,
    "matrix": io.matrix_from_json,
    "path": io.path_from_json,
    "emap": io.emap_from_json,
    "algebroid": io.algebroid_from_json,
}


def main() -> int:
    with open(sys.argv[1]) as fh:
        manifest = json.load(fh)
    for kind, path in manifest:
        PARSERS[kind](io.load_document(path), where=path)
    from reference import reference

    print(json.dumps([reference() for _ in range(REFS)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
