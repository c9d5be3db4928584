#!/usr/bin/env python3
"""selftest — fixture-driven verification that every ftmr-lint check
fires where it must and stays quiet where it must not.

Every fixture under tests/lint_fixtures/src/ carries `FLAG(check-id)`
markers on the exact lines the linter must diagnose; files without
markers are must-pass. The whole tree is linted in one model (cross-file
call resolution is part of what is under test) against the fixture-local
lock table, and the emitted set of (file, line, check) must equal the
marked set exactly — an extra diagnostic is as much a failure as a
missing one.

Two meta-assertions guard the suite itself against rot:
  * every registered check contributes at least one must-flag marker;
  * every check has at least one fixture file that stays clean.

Run directly or through ctest (ftmr_lint_selftest). Exit 0 on success.
"""

from __future__ import annotations

import io
import os
import re
import sys
from contextlib import redirect_stdout, redirect_stderr

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import ftmr_lint  # noqa: E402
from checks import CHECKS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(_HERE))
FIXTURES = os.path.join(ROOT, "tests", "lint_fixtures")
FLAG_RE = re.compile(r"FLAG\(([A-Za-z0-9_-]+)\)")
DIAG_RE = re.compile(r"^(.*?):(\d+): error: \[([A-Za-z0-9_-]+)\] ")


def collect_fixtures():
    sources, expected = [], set()
    for dirpath, _dirs, files in os.walk(os.path.join(FIXTURES, "src")):
        for f in sorted(files):
            if not f.endswith((".cpp", ".hpp")):
                continue
            path = os.path.join(dirpath, f)
            sources.append(path)
            rel = os.path.relpath(path, FIXTURES)
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, text in enumerate(fh, 1):
                    for m in FLAG_RE.finditer(text):
                        expected.add((rel, lineno, m.group(1)))
    return sources, expected


def run_lint(sources, extra_args=()):
    argv = ["--root", FIXTURES,
            "--lock-table", os.path.join(FIXTURES, "lock_table.yaml"),
            "-q", *extra_args, *sources]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = ftmr_lint.main(argv)
    got = set()
    for line in out.getvalue().splitlines():
        m = DIAG_RE.match(line)
        if m:
            got.add((m.group(1), int(m.group(2)), m.group(3)))
    return code, got, out.getvalue()


def main():
    sources, expected = collect_fixtures()
    if not sources:
        print(f"selftest: no fixtures found under {FIXTURES}", file=sys.stderr)
        return 2

    failures = []

    # Meta: the suite must cover every registered check, both ways.
    marked_checks = {c for _, _, c in expected}
    missing = set(CHECKS) - marked_checks
    if missing:
        failures.append(
            f"no must-flag fixture for check(s): {', '.join(sorted(missing))}")
    flagged_files = {f for f, _, _ in expected}
    clean_files = {os.path.relpath(s, FIXTURES) for s in sources} - flagged_files
    if not clean_files:
        failures.append("no must-pass (marker-free) fixture files at all")

    # The exact-match run.
    code, got, raw = run_lint(sources)
    for miss in sorted(expected - got):
        failures.append(f"expected diagnostic not emitted: "
                        f"{miss[0]}:{miss[1]} [{miss[2]}]")
    for extra in sorted(got - expected):
        failures.append(f"unexpected diagnostic: "
                        f"{extra[0]}:{extra[1]} [{extra[2]}]")
    if expected and code == 0:
        failures.append("linter exited 0 despite must-flag fixtures")

    # Must-pass subset exits 0 (exit-code discipline, not just set math).
    clean_sources = [s for s in sources
                     if os.path.relpath(s, FIXTURES) in clean_files]
    if clean_sources:
        code0, got0, _ = run_lint(clean_sources)
        if code0 != 0 or got0:
            failures.append(
                f"must-pass fixtures alone produced exit {code0} "
                f"and {len(got0)} diagnostic(s): {sorted(got0)[:5]}")

    # Per-check isolation: --checks lock-order on the whole tree must
    # emit exactly the lock-order subset (check selection is what the CI
    # mutation test leans on).
    for check in sorted(marked_checks):
        args = () if check == "escape-hatch" else ("--checks", check)
        _, gotc, _ = run_lint(sources, args)
        wantc = {e for e in expected if e[2] == check}
        gotc = {g for g in gotc if g[2] == check}
        if gotc != wantc:
            failures.append(
                f"--checks {check}: got {sorted(gotc)} want {sorted(wantc)}")

    if failures:
        print("ftmr-lint selftest FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print("\nfull linter output:\n" + raw, file=sys.stderr)
        return 1
    print(f"ftmr-lint selftest: {len(sources)} fixtures, "
          f"{len(expected)} expected diagnostics, all checks covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
