"""Guards against deleted code growing back.

Each case is named after the change that deleted something and fails
when a name, pattern or second copy that change removed reappears. A
pattern is searched line by line, like ``grep -rn``: a directory means
every file under it (byte-code caches excluded, and never this module,
which has to spell every pattern out), a glob its matching files.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve()


def _files(spec):
    if any(char in spec for char in "*?["):
        return sorted(ROOT.glob(spec))
    path = ROOT / spec
    if path.is_file():
        return [path]
    return sorted(
        file for file in path.rglob("*")
        if file.is_file() and "__pycache__" not in file.parts
        and file.resolve() != HERE
    )


def _lines(*specs):
    """``(file, line number, line)`` of every file the specs name."""
    for spec in specs:
        for file in _files(spec):
            text = file.read_text(encoding="utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), 1):
                yield file.relative_to(ROOT), number, line


def _sed_range(spec, start, end):
    """The lines ``sed -n '/start/,/end/p' spec`` prints: from every
    line matching ``start`` through the next line matching ``end``."""
    lines = [line for _, _, line in _lines(spec)]
    out, i = [], 0
    while i < len(lines):
        if re.search(start, lines[i]):
            j = next(
                (k for k in range(i + 1, len(lines)) if re.search(end, lines[k])),
                len(lines) - 1,
            )
            out.extend(lines[i:j + 1])
            i = j + 1
        else:
            i += 1
    return out


def absent(pattern, *specs):
    """No line of the named files matches ``pattern``."""
    def check():
        regex = re.compile(pattern)
        return [
            f"{file}:{number}: {line.strip()}"
            for file, number, line in _lines(*specs) if regex.search(line)
        ]
    return check


def absent_in_range(pattern, spec, *ranges):
    """No line inside the ``(start, end)`` sed ranges of ``spec``
    matches ``pattern``."""
    def check():
        regex = re.compile(pattern)
        return [
            f"{spec}: {line.strip()}"
            for start, end in ranges
            for line in _sed_range(spec, start, end) if regex.search(line)
        ]
    return check


def occurs_once(pattern, *specs):
    """Exactly one line of the named files matches ``pattern``."""
    def check():
        regex = re.compile(pattern)
        hits = [
            f"{file}:{number}: {line.strip()}"
            for file, number, line in _lines(*specs) if regex.search(line)
        ]
        return [] if len(hits) == 1 else [f"{len(hits)} matches, want 1", *hits]
    return check


#: Everything a command, example, benchmark or CI step can reach.
REACHABLE = ("src", "tests", "examples", "benchmarks", ".github")


def lacks(module, constant, name):
    """``name`` is not a member of ``module.constant`` (a dotted path
    below the module, e.g. ``"Class.__slots__"``)."""
    def check():
        values = importlib.import_module(module)
        for attribute in constant.split("."):
            values = getattr(values, attribute)
        return [f"{module}.{constant} has {name!r}"] if name in values else []
    return check


GUARDS = {
    # No tuple-trace code: one trace format, the record trace.
    "One trace format": [
        absent(
            r"TupleTracer|TraceSampler|validate_trace_lines|load_trace_jsonl"
            r"|trace_stride|trace-stride|trace_note",
            "src",
        ),
    ],
    # Records are published once: the per-batch record wire is gone.
    "Publish once": [
        absent(
            r"_Sender|_PipeLink|_ShmLink|_LoopbackLink|wait_for_credit"
            r"|TAG_SHM_FRAME|TAG_BATCH|TAG_EOF",
            "src",
        ),
    ],
    # Results return over one pipe per worker: no shared-memory
    # transport, its attach, descriptor frame, option or ring size.
    "One results wire": [
        absent(
            r"ShmRing|attach_ring|shm_supported|TAG_SHM_MATCHES|ring_bytes"
            r"|--transport|shared_memory",
            "src",
        ),
    ],
    # Heartbeats ride the result pipe: no heartbeat pipe, its
    # drop-and-retry path, struct codec, always-zero fields or the
    # starvation detector that read them.
    "One pipe per worker": [
        absent(
            r"pipe_sink|set_blocking|HEARTBEAT_MAGIC|heartbeats_dropped|starv"
            r"|blocked_s|bytes_in",
            "src",
        ),
    ],
    # Every run starts real worker processes, and every runtime test
    # runs them: no in-process executor, dispatch table or keyword.
    "One executor": [
        absent(r'_run_inline|EXECUTORS|executor="inline"', "src", "tests"),
    ],
    # Every number is an `observables` row, every verdict goes through
    # compare_fingerprints' entry builder.
    "One archive table, one comparison": [
        absent(
            r"compare_bench_fingerprints|compare_loaded|record_summary_payload"
            r"|_insert_bench_sections|_insert_stage_latency|_insert_span_totals"
            r"|default_check_metrics",
            "src",
        ),
    ],
    # One recorder class owns a _grow. The heartbeat is the one
    # instrument frame, a pickled dict like the summary that carries
    # the event log: no instrument codec.
    "One event log, one instrument frame": [
        occurs_once(r"def _grow", "src/repro/obs/*.py"),
        absent(r"^def (en|de)code_[a-z_]*_frame", "src/repro/parallel/codec.py"),
    ],
    # A token-filtered engine applies the prefix scheme's reporting
    # rule itself; the two-pass filter is the test oracle only.
    "Ownership declared once": [
        absent(r"PrefixDedupFilter\(", "src/repro/core/bolts.py"),
        absent(r"PrefixDedupFilter\(", "src/repro/parallel"),
    ],
    # Match rows are columns from emit to `result.matches`: no per-row
    # encoder loop, no tuple-building decode.
    "One result representation": [
        absent(
            r"def match_batch_parts|def emit_matches_shm",
            "src/repro/parallel/*.py",
        ),
        absent_in_range(
            r"zip\(", "src/repro/parallel/codec.py",
            (r"^def decode_match_batch", r"^def "),
        ),
        absent_in_range(
            r"\.append\(", "src/repro/parallel/codec.py",
            (r"^def encode_match_batch", r"^def "),
            (r"    def parts", r"^def "),
        ),
    ],
    # A bounded window's columns are time-ordered in both expiry modes:
    # no slot-stable layout, tombstones, cursors or trim.
    "One layout per window kind": [
        absent(
            r"tombstone|\.dead\b|\.trim\(|cols\.(start|base)|import verify_pair",
            "src/repro/core/local_join.py",
        ),
    ],
    # benchmarks/e2e is the one timing source: no in-tree engine A/B,
    # no command that runs it and no archive path for its payload.
    "No wall-clock engine A/B": [
        absent(
            r"wallclock_suite|record_wallclock_payload|--wallclock"
            r"|BENCH_wallclock",
            "src", "tests", ".github",
        ),
    ],
    # Histogram is the one latency reservoir and TaskMetrics.counters
    # the one counter store; `repro diff` is the one baseline gate; no
    # uncalled sweep helpers or accessors.
    "One reservoir, one store": [
        absent(
            r"LatencySampler|_obs_counters|check_baseline|sweep_thresholds"
            r"|imbalance_series|telemetry_document",
            "src", "tests",
        ),
    ],
    # Nothing without a caller: what only tests reached is gone. The
    # join is streaming; `naive_join` is the test oracle.
    "No batch join": [
        absent(r"repro\.offline", *REACHABLE),
    ],
    # Filter bounds are SimilarityFunction methods; the engines inline
    # the position filter.
    "Filter bounds on the function": [
        absent(r"similarity\.filters", *REACHABLE),
    ],
    # A batch is a loop inside `engine.batched()`: no engine helper is
    # defined or called (the tests of that loop keep their names).
    "No insert batch helper": [
        absent(r"(def |\.)insert_batch\b", *REACHABLE),
    ],
    "No probe batch helper": [
        absent(r"(def |\.)probe_batch\b", *REACHABLE),
    ],
    # The simulator's groupings are the ones a topology declares.
    "No fields grouping": [
        absent(r"FieldsGrouping|fields_grouping", *REACHABLE),
    ],
    # Artefact headers and archive rows carry no constant transport;
    # only the runner's one-value keyword is left.
    "No transport key": [
        absent(
            r"\bTRANSPORT\b", "src/repro/obs", "src/repro/cli.py", "tests",
            "examples", "benchmarks", ".github",
        ),
        absent(r'"transport"', "src"),
    ],
    # Telemetry readers accept the schema the recorder writes.
    "One telemetry schema": [
        absent(r"_READABLE_SCHEMAS", *REACHABLE),
    ],
    # The archive keeps only runs it can compare: live runs through one
    # writer, at the one schema. No back-fill from artefact files (its
    # runs had no config, seed or input digest), no upgrade chain.
    "Live runs only, one schema": [
        absent(r"ingest_path|_UPGRADES|_without_tier|history ingest", *REACHABLE),
        absent(r"_insert_run|_insert_fingerprint|_RUN_COLUMNS", "src"),
    ],
    # `repro bench` runs the suite itself; the R–S join is the
    # distributed one. No library copy that only tests called.
    "No experiment runner": [
        absent(r"\bExperimentRunner\b", *REACHABLE),
    ],
    "No local two-stream engine": [
        absent(r"\bTwoStreamSetJoin\b", *REACHABLE),
    ],
}


# The event log speaks today's runtime: records are published once, so
# no phase, event, derived stage or reader branch of the per-batch
# record wire is left.
for _name in ("LEGACY_DRIVER_PHASES", "LEGACY_WORKER_PHASES", "WORKER_WAIT_PHASES"):
    GUARDS[f"No record-wire {_name}"] = [absent(rf"\b{_name}\b", *REACHABLE)]
for _name in ("feed", "encode", "pipe_read", "decode"):
    GUARDS[f"No record-wire phase {_name}"] = [
        lacks("repro.obs.spans", "PHASES", _name),
    ]
for _name in ("feed", "encode", "pipe_write", "decode"):
    GUARDS[f"No record-wire event {_name}"] = [
        lacks("repro.obs.rectrace", "TRACE_EVENTS", _name),
    ]
GUARDS["No record-wire stage pipe"] = [
    lacks("repro.obs.rectrace", "TRACE_STAGES", "pipe"),
]
# One run-end report per worker: the summary carries the event log and
# is the final heartbeat, so no event frame, its codec or magic is
# left, and the driver stamps a sample's sequence number.
for _name in ("TAG_EVENTS", "encode_event_frame", "decode_event_frame", "EVENT_MAGIC"):
    GUARDS[f"No event frame {_name}"] = [
        lacks("repro.parallel.codec", "__dict__", _name),
        absent(rf"\b{_name}\b", *REACHABLE),
    ]
GUARDS["No worker-side heartbeat seq"] = [
    lacks("repro.parallel.worker", "HeartbeatEmitter.__slots__", "seq"),
]
# Rows cross the pipe only when someone reads them: a run collects or
# counts, and no callable sink can stand in for "nobody reads".
GUARDS["No ParallelJoinRunner.run sink"] = [
    lacks(
        "repro.parallel.runtime",
        "ParallelJoinRunner.run.__code__.co_varnames",
        "sink",
    ),
]
# No approximate tier: no command, config or runtime path reaches a
# sketch join. What the benchmark's sketch layer still calls stays in
# repro.sketch until that layer goes.
GUARDS["No approximate tier"] = [
    absent(
        r'band_router|BandRouter|recall_floor|observables_recall'
        r'|recall_lower_bound|band_filter|mode="approx"|"SKT"',
        "src", "tests",
    ),
]
for _name in ("mode", "perms", "bands"):
    GUARDS[f"No JoinConfig.{_name}"] = [
        lacks("repro.core.config", "JoinConfig.__dataclass_fields__", _name),
    ]
# Settings nobody varied are module constants, not JoinConfig fields.
for _name in ("sample_size", "bundle_max_members"):
    GUARDS[f"No JoinConfig.{_name}"] = [absent(rf"\b{_name}\b", *REACHABLE)]
# Shard plans are fixed at start, so nothing could carry out a re-plan;
# the static load-aware cut is the one partitioner.
GUARDS["No adaptive repartitioner"] = [
    absent(
        r"AdaptiveLengthPartitioner|RollingLengthHistogram|migration_fraction"
        r"|ReplanDecision|partition\.adaptive",
        *REACHABLE,
    ),
]


@pytest.mark.parametrize("step", list(GUARDS))
def test_guard(step):
    failures = [failure for check in GUARDS[step] for failure in check()]
    assert failures == [], f"{step}: deleted code grew back: {failures}"


#: Run in a fresh interpreter: the sketch modules ``import repro`` and
#: an exact ``repro join --parallel`` load, in the driver and in a
#: worker, which records its own at the end of its run. The worker is
#: forked so that it inherits the wrapped entry point; the runtime has
#: no hook of its own for this.
_TIER_PROBE = """
import json, multiprocessing, sys

def tier():
    return sorted(
        name for name in sys.modules
        if name.startswith("repro.sketch")
        or name == "repro.routing.band_router"
    )

corpus, worker_out = sys.argv[1:]
import repro
after_import = tier()
import repro.parallel.runtime as runtime
from repro.cli import main

multiprocessing.set_start_method("fork", force=True)
original = runtime.worker_main

def worker_main(*args, **kwargs):
    try:
        original(*args, **kwargs)
    finally:
        with open(worker_out, "w") as handle:
            json.dump(tier(), handle)

runtime.worker_main = worker_main
code = main(["join", corpus, "--parallel", "--workers", "1",
             "--threshold", "0.7", "--no-archive"])
print(json.dumps({"code": code, "import": after_import, "driver": tier()}))
"""


def test_exact_join_loads_no_approximate_tier(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("alpha beta gamma\nalpha beta gamma delta\n" * 10)
    worker_out = tmp_path / "worker.json"
    done = subprocess.run(
        [sys.executable, "-c", _TIER_PROBE, str(corpus), str(worker_out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"code": 0, "import": [], "driver": []}
    assert json.loads(worker_out.read_text()) == []
