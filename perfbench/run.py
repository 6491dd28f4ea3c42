#!/usr/bin/env python3
"""End-to-end Proof-of-Alibi audit benchmark.

Follows fresh drone submissions from signing to stored verdict through the
repository's own code (``src/repro``): drone-side sampling, TEE signing
and record encryption, then ``AuditorService.submit`` (admission, the
SQLite/WAL store, the queue) and ``AuditorService.drain`` (decrypt,
authenticate, the six-stage pipeline, the verdict write).

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger; the last line of standard output is one JSON object.  The
workloads and what each is for are described in ``workloads.py``.  The
exit code is non-zero when a verdict is wrong, a replayed verdict
disagrees with the reference verifier, or a fresh-input guard trips.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-cold", "corridor-dense", "hostile-flood")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="open-loop duration in wall seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from bench import execute

    return execute(args.workload, args.seed, args.seconds, bool(args.trace),
                   ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
