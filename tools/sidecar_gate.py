#!/usr/bin/env python3
"""Gate a bench's fresh BENCH_*.json against the committed sidecar.

Usage: sidecar_gate.py COMMITTED FRESH PATTERN [PATTERN ...]

Every metric of COMMITTED whose name matches one of the glob PATTERNs must
be present in FRESH and equal to it within a relative tolerance of 1e-9.
Use it on rows that do not depend on the host (virtual-time makespans,
byte counts), so a change that moves them fails until the sidecar is
regenerated. Exit status is the number of failed rows (at least 1 when no
committed row matches, so a renamed metric cannot pass vacuously).
"""
import fnmatch
import json
import math
import sys

REL_TOL = 1e-9


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed_path, fresh_path, patterns = argv[1], argv[2], argv[3:]
    with open(committed_path) as f:
        committed = json.load(f)["metrics"]
    with open(fresh_path) as f:
        fresh = json.load(f)["metrics"]
    rows = sorted(k for k in committed
                  if any(fnmatch.fnmatchcase(k, p) for p in patterns))
    if not rows:
        print(f"no committed metric matches {patterns}", file=sys.stderr)
        return 1
    failed = 0
    for key in rows:
        want = committed[key]
        got = fresh.get(key)
        if got is None:
            print(f"FAIL {key}: missing from {fresh_path}")
            failed += 1
        elif not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            print(f"FAIL {key}: fresh {got!r} vs committed {want!r}")
            failed += 1
        else:
            print(f"ok   {key} = {got!r}")
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv))
