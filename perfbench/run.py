"""Run one workload of the cooptile benchmark and print its result.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics and writes the spans to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("protocol", "online", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cooptile" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/cooptile; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cooptile

    if Path(cooptile.__file__).resolve().parent != SRC / "cooptile":
        print(f"perfbench: imported cooptile from {cooptile.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
