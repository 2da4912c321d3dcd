"""Pass rates of the acceptance gates over seed offsets.

Each acceptance criterion in tests/test_acceptance.py runs at pinned seeds
(offset 0).  This script runs every criterion at the seed offsets 1..K,
K = 20, which key noise disjoint from the pinned run and from each other,
and writes one JSON: per criterion, the pass count, its Wilson 95% interval
and the deciding statistics at each offset.  A criterion that raises counts
as a fail and records the exception.  It is run by hand, not by the test
suite; it takes several minutes on two CPUs.

    PYTHONPATH=src python scripts/gate_rates.py --out scripts/gate_rates/<stream>.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from meanfieldlab.experiments import wilson_interval  # noqa: E402
from meanfieldlab.rng import STREAM  # noqa: E402
from test_acceptance import CRITERIA  # noqa: E402

K = 20
OFFSETS = list(range(1, K + 1))


def _plain(value):
    """A JSON-ready copy of a statistic: numpy scalars and arrays as Python values."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def sweep() -> dict:
    results = {}
    for num, (name, body) in CRITERIA.items():
        runs, passes = [], 0
        for offset in OFFSETS:
            try:
                verdict = body(offset)
                run = {"offset": offset, "ok": bool(verdict.ok), "stats": _plain(verdict.stats)}
            except Exception as exc:  # a raising criterion is a failed gate
                run = {"offset": offset, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            passes += run["ok"]
            runs.append(run)
            print(f"criterion {num:02d} offset {offset}: {'PASS' if run['ok'] else 'FAIL'}",
                  flush=True)
        low, high = wilson_interval(passes, K)
        results[f"{num:02d}"] = {"name": name, "passes": passes, "runs": K,
                                 "wilson_95": [low, high], "offsets": runs}
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON path to write")
    args = parser.parse_args(argv)
    report = {"stream": STREAM, "numpy": np.__version__, "offsets": OFFSETS,
              "seed_rule": "pinned seed + offset * 2**32", "criteria": sweep()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for num, res in report["criteria"].items():
        low, high = res["wilson_95"]
        print(f"criterion {num} {res['name']}: {res['passes']}/{res['runs']} pass, "
              f"Wilson 95% [{low:.3f}, {high:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
