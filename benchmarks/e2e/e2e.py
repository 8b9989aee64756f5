"""The end-to-end pass: set-up, correctness tiers and timed subprocess runs.

Tracing is off here, and this module imports nothing of the program: it
only spawns processes, so the parent stays small (see ``child_setup.py``
for why that matters to the memory it measures). The program receives
the generated token file and its normal CLI flags, nothing else. Three
correctness tiers feed the failed-operation count:

(a) set-up (``child_setup.py``) checks a brute-force join of the first
    records against the single engine and ``run_serial``, pair for pair;
(b) one untimed *verify* round at full scale: the single child's pair-set
    digest must equal that of ``repro join --parallel --pairs``;
(c) every timed join's ``--fingerprint-out`` (and every single child's
    result file) must carry the reference ``run_records``/``run_results``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import calib
import procs
from child_single import pairs_digest
from workloads import Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Set-up is repeated so ``setup_s`` does not rest on one sample.
SETUP_REPEATS = 3
MIN_ROUNDS = 5


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def join_workers() -> int:
    """Driver + workers never exceed the cores the benchmark may use."""
    return max(1, min(4, host_cpus() - 1))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + inherited)
    # Nothing the program writes may land outside the checkout, and str
    # hashing must not differ from run to run.
    env["REPRO_ARCHIVE"] = ""
    env["PYTHONHASHSEED"] = "0"
    return env


def parent_peak_rss_mb() -> float:
    """This process's own high-water RSS — what Linux charges to a child's
    ``ru_maxrss`` at ``exec``. (``getrusage`` would not do: its figure
    already includes what this process inherited from *its* parent.)
    0 where ``/proc`` is missing, which is also where the effect is."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Ops:
    """Attempted / failed operations, with the reason for each failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, error: str) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Prepared:
    workload: Workload
    records: int
    token_file: Path
    tmp: Path


@dataclass
class Sample:
    """One timed subprocess run."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float


# -- set-up ------------------------------------------------------------------

def timed_set_up(workload: Workload, seed: int, scale: float, tmp: Path,
                 ops: Ops, repeats: int, calibrations: List[float]
                 ) -> Tuple[Prepared, List[float]]:
    """Run ``child_setup.py`` ``repeats`` times (same seed, same file);
    returns what it prepared and how long each repeat took."""
    token_file = tmp / f"{workload.name}.txt"
    result_file = tmp / f"{workload.name}.setup.json"
    argv = [
        sys.executable, str(HERE / "child_setup.py"),
        "--workload", workload.name, "--seed", str(seed),
        "--scale", repr(scale), "--token-file", str(token_file),
        "--result-out", str(result_file),
    ]
    walls = []
    records = 0
    for _ in range(repeats):
        calibrations.append(calib.calibrate())
        result_file.unlink(missing_ok=True)
        run = procs.run(argv, child_env(), tmp / f"{workload.name}.setup.out")
        error = run.error
        if not error:
            result = json.loads(result_file.read_text())
            records = result["records"]
            error = result["oracle_error"]
        ops.record(f"{workload.name} set-up + oracle", error)
        walls.append(run.wall_s)
    return Prepared(workload, records, token_file, tmp), walls


# -- subprocess operations -----------------------------------------------------

def join_argv(prepared: Prepared, fingerprint: Path, pairs: bool) -> List[str]:
    argv = [
        sys.executable, "-m", "repro", "join", str(prepared.token_file),
        "--parallel", "--workers", str(join_workers()), "--no-archive",
        "--fingerprint-out", str(fingerprint),
        *prepared.workload.join_flags(),
    ]
    return argv + ["--pairs"] if pairs else argv


def _single_argv(prepared: Prepared, result: Path, digest: bool) -> List[str]:
    argv = [
        sys.executable, str(HERE / "child_single.py"),
        str(prepared.token_file), "--result-out", str(result),
        *prepared.workload.semantics_flags(),
    ]
    return argv + ["--pairs-digest"] if digest else argv


def _read_counts(path: Path, fingerprint: bool) -> Optional[Dict[str, int]]:
    try:
        data = json.loads(path.read_text())
        if fingerprint:
            data = {k: v["total"] for k, v in data["exact"].items()}
        return {k: int(data[k]) for k in ("run_records", "run_results")}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _stdout_pairs(path: Path) -> Iterator[Tuple[int, int]]:
    """The ``similarity<TAB>earlier<TAB>later`` lines that ``repro join
    --pairs`` prints, streamed: the parent must not grow."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3:
                yield int(parts[1]), int(parts[2])


class Runner:
    """Runs join / single operations for one prepared workload and checks
    each against the reference counts."""

    def __init__(self, prepared: Prepared, ops: Ops):
        self.prepared = prepared
        self.ops = ops
        self.env = child_env()
        self.reference: Optional[Dict[str, int]] = None

    def _run(self, kind: str, argv: List[str], counts_file: Path,
             label: str) -> procs.RunResult:
        name = self.prepared.workload.name
        counts_file.unlink(missing_ok=True)
        floor = parent_peak_rss_mb()
        result = procs.run(
            argv, self.env, self.prepared.tmp / f"{name}.{kind}.out"
        )
        if result.ok:
            counts = _read_counts(counts_file, fingerprint=kind == "join")
            if counts is None:
                result.error = f"unreadable {counts_file.name}"
            elif self.reference is None:
                self.reference = counts
            elif counts != self.reference:
                result.error = f"counts {counts} != reference {self.reference}"
            elif result.peak_rss_mb <= floor:
                result.error = (
                    f"peak RSS {result.peak_rss_mb:.1f} MiB is the parent's "
                    f"own ({floor:.1f} MiB), not the child's"
                )
        self.ops.record(f"{name} {label}", result.error)
        return result

    def join(self, label: str, pairs: bool = False) -> procs.RunResult:
        fingerprint = self.prepared.tmp / f"{self.prepared.workload.name}.fp.json"
        return self._run(
            "join", join_argv(self.prepared, fingerprint, pairs),
            fingerprint, label,
        )

    def single(self, label: str, digest: bool = False) -> procs.RunResult:
        result = self.prepared.tmp / f"{self.prepared.workload.name}.single.json"
        return self._run(
            "single", _single_argv(self.prepared, result, digest),
            result, label,
        )

    def verify_round(self) -> None:
        """Tier (b), which is also the discarded warm-up round. The single
        child runs first and fixes the reference counts."""
        name = self.prepared.workload.name
        tmp = self.prepared.tmp
        if not self.single("verify single", digest=True).ok:
            return
        want = json.loads((tmp / f"{name}.single.json").read_text())
        self.ops.record(
            f"{name} verify records",
            "" if want["run_records"] == self.prepared.records
            else f"read {want['run_records']} records, "
                 f"wrote {self.prepared.records}",
        )
        if not self.join("verify join", pairs=True).ok:
            return
        got = pairs_digest(_stdout_pairs(tmp / f"{name}.join.out"))
        self.ops.record(
            f"{name} verify pairs",
            "" if got == want["pairs_digest"]
            else "join --pairs and the single engine report different pair sets",
        )


@dataclass
class EndToEnd:
    """What one end-to-end pass measured for one workload."""

    prepared: Prepared
    workers: int
    setup: List[float]
    join: List[Sample]
    single: List[Sample]
    #: One calibration before every set-up repeat and timed run, and one
    #: after the last.
    calibrations: List[float]

    @property
    def host_factor(self) -> float:
        """``CALIB_REF_S`` over the lower quartile of this pass's
        calibrations: what turns seconds here into seconds on the
        reference host. (Over ten-seed sets the lower quartile repeated
        better than the minimum, which rests on one lucky sample, and than
        the median, which the slow bursts reach.)"""
        quartiles = statistics.quantiles(
            self.calibrations, n=4, method="inclusive"
        )
        return calib.CALIB_REF_S / quartiles[0]

    def sample_values(self, normalised: bool = True) -> Dict[str, List[float]]:
        """Per end-to-end metric, one value per timed round (per set-up
        repeat for ``setup_s``)."""
        records = self.prepared.records
        factor = self.host_factor if normalised else 1.0
        return {
            "setup_s": [wall * factor for wall in self.setup],
            "join_rps": [records / (s.wall_s * factor) for s in self.join],
            "join_cpu_s": [s.cpu_s * factor for s in self.join],
            "join_peak_rss_mb": [s.peak_rss_mb for s in self.join],
            "single_rps": [records / (s.wall_s * factor) for s in self.single],
            "single_peak_rss_mb": [s.peak_rss_mb for s in self.single],
        }

    def metrics(self, normalised: bool = True) -> Dict[str, float]:
        """Times and rates from the fastest round, memory as the median.

        Host speed here moves in bursts of seconds, always downwards, so
        the fastest of the rounds repeats far better than their median."""
        values = self.sample_values(normalised)
        return {
            "setup_s": min(values["setup_s"]),
            "join_rps": max(values["join_rps"]),
            "join_cpu_s": min(values["join_cpu_s"]),
            "join_peak_rss_mb": statistics.median(values["join_peak_rss_mb"]),
            "single_rps": max(values["single_rps"]),
            "single_peak_rss_mb": statistics.median(values["single_peak_rss_mb"]),
        }


def run_pass(workload: Workload, seed: int, scale: float, tmp: Path, ops: Ops,
             seconds: float, repeats: Optional[int],
             setup_repeats: int = SETUP_REPEATS) -> EndToEnd:
    """Set-up, verify round, then timed rounds of (join, single), with a
    calibration between consecutive operations.

    With ``repeats`` the pass runs exactly that many timed rounds;
    otherwise it runs rounds until ``seconds`` have been measured, and
    never fewer than ``MIN_ROUNDS``."""
    calibrations: List[float] = []
    prepared, setup = timed_set_up(
        workload, seed, scale, tmp, ops, setup_repeats, calibrations
    )
    samples: Dict[str, List[Sample]] = {"join": [], "single": []}
    if not ops.failed:  # else there is no token file worth measuring
        runner = Runner(prepared, ops)
        runner.verify_round()
        started = time.perf_counter()

        def more(rounds: int) -> bool:
            if repeats is not None:
                return rounds < repeats
            return rounds < MIN_ROUNDS or time.perf_counter() - started < seconds

        rounds = 0
        while more(rounds):
            for kind in ("join", "single"):
                calibrations.append(calib.calibrate())
                result = getattr(runner, kind)(f"{kind} round {rounds}")
                if result.ok:
                    samples[kind].append(Sample(
                        result.wall_s, result.cpu_s, result.peak_rss_mb
                    ))
            rounds += 1
    calibrations.append(calib.calibrate())
    return EndToEnd(
        prepared, join_workers(), setup, samples["join"], samples["single"],
        calibrations,
    )


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return math.nan
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]
