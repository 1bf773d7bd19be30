"""raresplit benchmark: WNRV and wall time on three preset workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload lognormal-sum --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced replay and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  ``--s`` and ``--m`` shrink the protocol for the
benchmark's self-tests.  See NOTES.md beside this file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--s", type=int, default=3000, help="states per level")
    p.add_argument("--m", type=int, default=200, help="replications per call")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # the benchmark measures the sources beside it, never an installed copy
    if not (SRC / "raresplit" / "__init__.py").is_file():
        print(f"raresplit sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main())
