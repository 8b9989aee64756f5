"""``repro diff``: regression-gate two run artefacts."""

from __future__ import annotations

import json
import sys

from repro.obs.baseline import compare_fingerprints, load_fingerprint, render_verdict


def run(args) -> int:
    try:
        baseline = load_fingerprint(args.baseline)
        current = load_fingerprint(args.current)
        verdict = compare_fingerprints(baseline, current, rel_tol=args.rel_tol)
    except (OSError, ValueError) as error:
        print(f"diff: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(verdict, indent=1, sort_keys=True))
    else:
        print(render_verdict(verdict))
    return 0 if verdict["status"] == "ok" else 1
