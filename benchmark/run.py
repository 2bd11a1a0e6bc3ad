#!/usr/bin/env python3
"""accbo benchmark: one workload, one seed, one closed-loop caller.

Usage (from the repository root):

    python3 benchmark/run.py --workload cmp-ridge-two --seed 0 --seconds 56 --trace 0

With --trace 0 it ends within about --seconds seconds, set-up included:
with tracing off it alternates cold set-ups in fresh interpreters with
repetitions of the workload, and reports the end-to-end metrics. With
--trace 1 it runs the workload once untraced and once traced, then the
micro-probes, and reports the per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it describe
the run (machine, versions, samples, failed checks).

The library is imported from src/ next to this directory; the run exits with
code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy asks the kernel for transparent huge pages for large arrays. Whether a
# process gets them varies from run to run, and with them track-mc's peak RSS
# read 75 instead of 63 MiB. Set before numpy is imported; the set-up probes
# inherit it.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_REP = 2
MIN_REPS = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one cold set-up in this process and print it")
    return ap.parse_args(argv)


def _setup(name: str, seed: int):
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](seed)


def _setup_probe(args) -> None:
    start = time.perf_counter()
    import accbo  # noqa: F401  (the import is part of set-up)
    _setup(args.workload, args.seed)
    print(repr(time.perf_counter() - start))


def _cold_setup_s(args) -> float:
    """Set-up time of one fresh interpreter, which runs to its end first."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _meta() -> dict:
    import numpy
    import accbo
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "accbo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "accbo": accbo.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str:
    """HEAD's commit, or "unknown" outside a git checkout.

    --git-dir keeps git from taking the commit of an enclosing repository."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Checked:
    """Running tally of checked units over the repetitions of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, rep) -> int:
        units, calls = self.workload.check(rep, self.first)
        self.first = self.first or rep
        self.attempted += len(units)
        self.failures += [f"{label} {u.name}: {'; '.join(u.failures)}"
                          for u in units if u.failures]
        return calls


def _measure(workload, args, deadline: float, out: Path, checked: Checked) -> dict:
    """Closed loop: SETUP_PER_REP cold set-ups, then one repetition of the
    workload, until the next round would end after `deadline` (at least
    MIN_REPS rounds). Interleaving the set-ups with the repetitions exposes
    both to the same stretch of machine time.

    Peak RSS is read after the first repetition: later ones only add allocator
    fragmentation, which would make it depend on the repetition count."""
    walls, rates, setups, rounds = [], [], [], []
    while True:
        start = time.perf_counter()
        setups += [_cold_setup_s(args) for _ in range(SETUP_PER_REP)]
        rep = workload.run(out / f"rep{len(walls)}")
        calls = checked.add(f"rep {len(walls)}", rep)
        walls.append(rep.wall_s)
        rates.append(calls / rep.wall_s)
        if len(walls) == 1:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        rounds.append(now - start)
        if len(walls) >= MIN_REPS and now + statistics.median(rounds) > deadline:
            break
    return {"walls": walls, "rates": rates, "setups": setups, "rss_mib": rss_mib}


def _traced(workload, out: Path, checked: Checked) -> dict:
    import probes
    import tracing

    untraced = workload.run(out / "untraced")
    checked.add("untraced", untraced)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        traced = workload.run(out / "traced",
                              call=lambda fn, config: tracer.call("harness.cmd", fn, config))
    calls = checked.add("traced", traced)
    traced_calls = sum(tracer.calls(f"problems.oracle.{k}") for k in ("g1", "f", "jvp", "hvp"))
    if workload.name != "track-mc":  # its gradients are computed inline, not by oracles
        checked.attempted += 1
        if traced_calls != calls:
            checked.failures.append(
                f"traced oracle wrappers counted {traced_calls} calls, the run's logs {calls}")
    metrics = tracing.layer_metrics(tracer, untraced.wall_s, traced.wall_s)
    metrics.update(probes.run(workload.seed))
    print(f"untraced {untraced.wall_s:.3f} s, traced {traced.wall_s:.3f} s")
    return metrics


def main(argv=None) -> int:
    deadline = time.perf_counter()
    args = _parse(argv)
    deadline += args.seconds
    if not (SRC / "accbo" / "__init__.py").is_file():
        print(f"error: no accbo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args)
        return 0

    if not args.trace:
        _cold_setup_s(args)  # only warms the file cache; not counted
    workload = _setup(args.workload, args.seed)
    meta = _meta()
    out = OUT / f"{args.workload}-{os.getpid()}"
    checked = Checked(workload)
    try:
        if args.trace:
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in _traced(workload, out, checked).items()}
        else:
            m = _measure(workload, args, deadline, out, checked)
            walls, setups = m["walls"], m["setups"]
            print(f"wall_s median {statistics.median(walls):.4f} over {len(walls)} "
                  f"repetitions (min {min(walls):.4f}, max {max(walls):.4f})")
            print(f"setup_s median {statistics.median(setups):.4f} over {len(setups)} "
                  f"set-ups (min {min(setups):.4f}, max {max(setups):.4f})")
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "oracle_calls_per_s": {"value": statistics.median(m["rates"]),
                                       "unit": "1/s"},
                "peak_rss_mib": {"value": m["rss_mib"], "unit": "MiB"},
            }
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed = len(checked.failures)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"checked units: {checked.attempted}, failed: {failed}, "
          f"fail_frac {failed / checked.attempted:.4f}")
    for line in checked.failures:
        print("FAILED " + line)
    print(json.dumps({"correct": failed == 0, "attempted": checked.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".us_per_" in name:
        return "us"
    if name.endswith("ns_per_seed_step"):
        return "ns"
    if name.endswith(("share", "_frac", "per_generator", "per_estimate")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
