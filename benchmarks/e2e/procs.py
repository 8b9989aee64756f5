"""Run one subprocess as one benchmark operation.

Every operation is a fresh process in its own session, timed from spawn
to exit with ``os.wait4`` — wall time, user+sys CPU and peak RSS of the
whole process tree it waited for (``repro join`` joins its workers, so
their CPU and RSS are included). A timeout kills the process group. A
``/dev/shm`` segment that outlives the process is a failure of the run
that made it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Set

#: ``multiprocessing.shared_memory`` names its segments ``psm_<hex>``.
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "psm_"

DEFAULT_TIMEOUT_S = 60.0


@dataclass
class RunResult:
    #: Why the run failed ("" if it did not): exit status, timeout, leak —
    #: or what the caller found wrong with its output.
    error: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def ok(self) -> bool:
        return not self.error


def _shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith(_SHM_PREFIX)}
    except OSError:
        return set()


def run(
    argv: List[str],
    env: Mapping[str, str],
    stdout_path: Path,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> RunResult:
    """Spawn ``argv``, wait for it, account for it. Standard output goes
    to ``stdout_path`` and standard error beside it (``.err``), so a
    chatty child can never block on a pipe the parent is not reading."""
    before = _shm_segments()
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, \
            open(f"{stdout_path}.err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=dict(env), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )

        def kill_group() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout_s, kill_group)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall_s = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    # Popen never saw the exit; tell it, so it does not try to reap again.
    proc.returncode = code
    # A daemon worker that outlived its driver would leak; none should.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass

    leaked = _shm_segments() - before
    for name in leaked:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            pass

    if timed_out.is_set():
        error = f"timeout after {timeout_s:.0f}s"
    elif code != 0:
        tail = Path(f"{stdout_path}.err").read_text(errors="replace")[-400:]
        error = f"exit {code}: {tail.strip()}"
    elif leaked:
        error = f"leaked /dev/shm segments: {sorted(leaked)}"
    else:
        error = ""
    return RunResult(
        error=error,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
