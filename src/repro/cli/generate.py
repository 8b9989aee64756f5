"""``repro generate``: write a synthetic corpus to a token file."""

from __future__ import annotations

import sys

from repro.datasets.corpora import CORPUS_BUILDERS
from repro.datasets.loader import save_token_file


def run(args) -> int:
    builder = CORPUS_BUILDERS[args.corpus]
    kwargs = {"seed": args.seed}
    if args.duplicate_rate is not None:
        kwargs["duplicate_rate"] = args.duplicate_rate
    try:
        stream = builder(args.records, **kwargs)
    except ValueError as error:  # bad --records or --duplicate-rate
        print(f"generate: {error}", file=sys.stderr)
        return 2
    try:
        count = save_token_file(args.output, stream)
    except OSError as error:
        print(f"generate: {error}", file=sys.stderr)
        return 2
    print(f"wrote {count} records to {args.output}")
    return 0
