"""Self-tests of the benchmark: ``python3 perfbench/run.py --selftest``.

Each check is small (the whole set takes about a minute):

* a miniature of each workload, untraced and traced, passes with zero
  failed operations, well-nested spans and every declared metric;
* one answer flipped inside the program is counted as a failed operation,
  on the static path and on the write path;
* a process that outlives its run, a ``/dev/shm`` entry left behind and a
  run that overstays its deadline each fail the supervisor's checks, and
  what they left is removed;
* a span outside its parent fails the nesting check;
* the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
import uuid

from perfbench import run as harness

#: Sizes divided by this in the miniatures.
MINI_SCALE = 16
MINI_SECONDS = 1.0


def check(results: list[tuple[str, bool, str]], name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail and not ok else ''}")


def miniatures(results) -> None:
    for workload in harness.WORKLOADS:
        for trace in (False, True):
            record, problems = harness.run_workload(
                workload, 3, MINI_SECONDS, trace, ["--scale", str(MINI_SCALE)]
            )
            missing = []
            if record is not None:
                missing = sorted(set(harness.declared_metrics(trace)) - set(record["metrics"]))
            ok = (
                record is not None and not problems and not missing
                and record["correct"] and record["failed"] == 0 and record["attempted"] > 0
            )
            detail = str(problems or missing or (record or {}).get("failures"))
            check(results, f"miniature {workload} trace={int(trace)}", ok, detail)


def flipped_answers(results) -> None:
    """Flip one answer below the benchmark; the run must count it."""
    sys.path.insert(0, str(harness.ROOT / "src"))
    os.environ.update(
        {key: value for key, value in harness.workload_env().items() if key.startswith("REPRO_")}
    )
    from repro.lsm.online import OnlineLSMTree
    from repro.serve.service import ShardedLookupService

    from perfbench import workload

    def flip_once(cls, attribute, skip, flip):
        """Flip the answer of the call after the first ``skip`` (the warm-up's)."""
        original = getattr(cls, attribute)
        calls = itertools.count()

        def patched(self, *args, **kwargs):
            value = original(self, *args, **kwargs)
            return flip(value) if next(calls) == skip else value

        setattr(cls, attribute, patched)
        return original

    def flip_static(value):
        answers, stats = value
        answers = answers.copy()
        answers[0] = not answers[0]
        return answers, stats

    def flip_points(found):
        found = found.copy()
        found[0] = not found[0]
        return found

    # Skip the warm-up's calls: one served batch, two point-lookup calls.
    cases = (
        ("ycsb_scans", ShardedLookupService, "serve_batch", 1, flip_static),
        ("write_churn", OnlineLSMTree, "lookup_many", 2, flip_points),
    )
    for name, cls, attribute, skip, flip in cases:
        original = flip_once(cls, attribute, skip, flip)
        try:
            document, _ = workload.run(name, 3, MINI_SECONDS, False, MINI_SCALE)
        finally:
            setattr(cls, attribute, original)
        ok = not document["correct"] and document["failures"]["wrong"] == 1
        check(results, f"one flipped answer fails {name}", ok, str(document["failures"]))


def hygiene(results) -> None:
    env = harness.workload_env()
    python = sys.executable
    leak = (
        "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'], start_new_session=True)"
    )
    outcome = harness.supervise([python, "-c", leak], env, 30.0)
    survivors = [pid for pid in outcome.leftovers if harness.alive(pid)]
    check(
        results, "a leaked child process fails the run",
        not outcome.clean and bool(outcome.leftovers) and not survivors,
        f"leftovers {outcome.leftovers}, still alive {survivors}",
    )
    name = f"perfbench-selftest-{uuid.uuid4().hex[:8]}"
    outcome = harness.supervise(
        [python, "-c", f"open('/dev/shm/{name}', 'w').close()"], env, 30.0
    )
    check(
        results, "a leaked /dev/shm entry fails the run",
        outcome.new_shm == [name] and not (harness.SHM / name).exists(),
        str(outcome.new_shm),
    )
    outcome = harness.supervise([python, "-c", "import time; time.sleep(60)"], env, 1.0)
    check(results, "an overdue run is killed and fails", outcome.killed and not outcome.clean)


def nesting(results) -> None:
    from perfbench.tracer import Span, Tracer

    tracer = Tracer()
    with tracer.span("parent", "r0"):
        with tracer.span("child"):
            pass
    clean = not tracer.nesting_errors() and tracer.spans[0].request_id == "r0"
    parent = tracer.spans[-1]
    tracer.spans.append(
        Span(99, parent.span_id, "late", parent.start_ns, parent.end_ns + 1, "r0")
    )
    check(results, "a span outside its parent fails the nesting check",
          clean and len(tracer.nesting_errors()) == 1)


def needs_sources(results) -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = harness.ROOT / ".bench_build" / "tmp" / f"bare-{uuid.uuid4().hex[:8]}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            harness.ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ycsb_scans", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        check(results, "without the program's sources the run fails",
              proc.returncode != 0 and not proc.stdout.strip(), proc.stdout[-200:])
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    results: list[tuple[str, bool, str]] = []
    nesting(results)
    needs_sources(results)
    hygiene(results)
    miniatures(results)
    flipped_answers(results)
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-tests passed")
    return 1 if failed else 0
