"""Run one benchmark workload in its own process and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sparse_reads --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

The workload runs as ``python -m perfbench.workload`` in a new session
(its own process group), against the ``src/`` tree of this checkout, with
the ``cc`` kernel backend compiled into ``.bench_build/``.  This
supervisor gives it a hard deadline, kills its whole process group when
the deadline passes, and afterwards fails the run if any process it
started is still alive or if it left a new entry in ``/dev/shm``, removing
what is left either way.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, each metric with the
unit ``BENCHMARK.json`` declares.  The full record (host stamp, input
digest, failure detail, spans of traced runs) is written to
``.bench_out/``.  Exit status is 0 only for a run with no failure.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse_reads", "ycsb_scans", "write_churn")
#: Wall-clock limit for one workload process, build included.
DEADLINE_S = 170.0
#: How long processes of a finished run may take to exit on their own.
GRACE_S = 5.0
SHM = Path("/dev/shm")
MARKER = "PERFBENCH_RUN"


@dataclass
class Supervised:
    """What happened to one supervised process tree."""

    returncode: int | None
    killed: bool = False
    leftovers: list[int] = field(default_factory=list)
    new_shm: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.returncode == 0 and not (self.killed or self.leftovers or self.new_shm)


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def marked_processes(token: str) -> list[int]:
    """Live processes whose environment carries this run's marker."""
    needle = f"{MARKER}={token}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue
        if needle in environ.split(b"\0") and alive(int(entry.name)):
            found.append(int(entry.name))
    return found


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def kill_all(pids: list[int]) -> None:
    """SIGKILL every pid and wait (briefly) until none is alive."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    gone_by = time.monotonic() + GRACE_S
    while any(alive(pid) for pid in pids) and time.monotonic() < gone_by:
        time.sleep(0.05)


def supervise(command: list[str], env: dict, deadline: float) -> Supervised:
    """Run ``command`` in its own session; leave nothing of it behind.

    Every process it starts inherits a marker in its environment, so the
    check after exit finds them even if they left the process group.
    """
    token = secrets.token_hex(8)
    env = dict(env, **{MARKER: token})
    before = shm_entries()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )

    def forward(signum, frame):
        try:
            os.killpg(process.pid, signal.SIGTERM)
        except OSError:
            pass
        raise SystemExit(128 + signum)

    previous = signal.signal(signal.SIGTERM, forward)
    outcome = Supervised(returncode=None)
    try:
        outcome.returncode = process.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        outcome.killed = True
    finally:
        signal.signal(signal.SIGTERM, previous)
        if outcome.returncode is None:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except OSError:
                pass
            process.wait()
        quiet_by = time.monotonic() + GRACE_S
        while marked_processes(token) and time.monotonic() < quiet_by:
            time.sleep(0.1)
        outcome.leftovers = marked_processes(token)
        kill_all(outcome.leftovers)
        outcome.new_shm = sorted(shm_entries() - before)
        for name in outcome.new_shm:
            try:
                (SHM / name).unlink()
            except OSError:
                pass
    return outcome


def workload_env() -> dict:
    """Point the workload at this checkout's sources and kernel cache."""
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_KERNEL_BACKEND="cc",
        REPRO_KERNEL_CACHE=str(build / "kernels"),
        TMPDIR=str(build / "tmp"),
    )


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["unit"] for row in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 extra: list[str] | None = None) -> tuple[dict | None, list[str]]:
    """Supervise one workload run; returns its record and every problem found."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    result_path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "perfbench.workload", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--result", str(result_path), *(extra or []),
    ]
    outcome = supervise(command, workload_env(), DEADLINE_S)
    problems = []
    if outcome.killed:
        problems.append(f"killed after the {DEADLINE_S:.0f} s deadline")
    elif outcome.returncode != 0:
        problems.append(f"workload process exited with {outcome.returncode}")
    if outcome.leftovers:
        problems.append(f"processes outlived the run: {outcome.leftovers}")
    if outcome.new_shm:
        problems.append(f"/dev/shm entries outlived the run: {outcome.new_shm}")
    record = None
    if result_path.is_file() and outcome.returncode == 0:
        record = json.loads(result_path.read_text())
    elif not problems:
        problems.append("the workload wrote no result")
    return record, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        sys.path.insert(0, str(ROOT))
        from perfbench import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    declared = declared_metrics(bool(args.trace))
    record, problems = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if record is not None:
        missing = sorted(set(declared) - set(record["metrics"]))
        if missing:
            problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if record is None or problems:
        return 1
    print(
        f"perfbench: {args.workload} seed {args.seed} inputs {record['digest']} "
        f"on {record['stamp']['cpu_model']} x{record['stamp']['nproc']}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": bool(record["correct"]),
                "attempted": int(record["attempted"]),
                "failed": int(record["failed"]),
                "metrics": {
                    name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0 if record["correct"] and record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
