"""Multi-core parallel join runtime.

Real processes, not simulated tasks: the columnar
:class:`~repro.core.local_join.StreamingSetJoin` is sharded across
``multiprocessing`` workers, routed by the same
length/prefix/broadcast policies as the simulated cluster; every worker
is handed the records and the plan once and keeps what the plan assigns
its shards, and only results travel back (see
:mod:`repro.parallel.codec`). Observables — match sets, meter totals,
fingerprints — are bit-identical to a serial run of the same shard
plan, across any worker count (see :mod:`repro.parallel.planner` for
the argument and :mod:`repro.parallel.runtime` for the driver).
"""

from repro.parallel.codec import (
    BOTH,
    INDEX,
    PROBE,
    BatchEncoder,
    MatchRow,
    MatchTable,
    decode_match_batch,
    decode_record_batch,
    encode_match_batch,
    encode_record_batch,
)
from repro.parallel.merge import (
    merge_matches,
    merge_meters,
    parallel_fingerprint,
    worker_health,
    worker_metrics,
    worker_timeline,
)
from repro.parallel.planner import ShardPlan, plan_shards
from repro.parallel.runtime import (
    ParallelJoinResult,
    ParallelJoinRunner,
    ParallelWorkerError,
    run_serial,
)
from repro.parallel.worker import ShardWorker, build_shard_engine, worker_main

__all__ = [
    "BOTH",
    "INDEX",
    "PROBE",
    "BatchEncoder",
    "MatchRow",
    "MatchTable",
    "ParallelJoinResult",
    "ParallelJoinRunner",
    "ParallelWorkerError",
    "ShardPlan",
    "ShardWorker",
    "build_shard_engine",
    "decode_match_batch",
    "decode_record_batch",
    "encode_match_batch",
    "encode_record_batch",
    "merge_matches",
    "merge_meters",
    "parallel_fingerprint",
    "plan_shards",
    "run_serial",
    "worker_health",
    "worker_main",
    "worker_metrics",
    "worker_timeline",
]
