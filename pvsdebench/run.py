"""pvsde benchmark: one workload as a closed-loop batch job.

    python3 pvsdebench/run.py --workload forecast --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's command sequence again and
again, each pass after the previous one completes, until the next pass
would end after ``--seconds`` of passes (at least one pass).  Set-up runs
in a child process (``prepare.py``): once before the first pass, then
again between passes, spread evenly over the timed phase.  The host's
speed swings within seconds, so ``days_per_s`` and ``setup_s`` are scaled
to a nominal host speed by a fixed loop timed around every pass and
set-up (``reference.py``).  Every pass is checked: each
artifact must be readable by the command that consumes it, every figure
finite, and the quality figures identical across passes of one seed.

Report lines starting with ``#`` describe the environment, the workload
and every metric with its unit and direction.  The last line is one JSON
object: ``correct``, ``attempted`` and ``failed`` days, and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run runs each input untraced, then traced, so
the ratio of each such pair gives the tracing overhead.  The exit code is 0
only when every check passed.  See README.md for the workloads and what
each per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import bootstrap

HERE = Path(__file__).resolve().parent
WORK_ROOT = bootstrap.ROOT / ".pvsdebench_work"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 150

# name -> (unit, better) of BENCHMARK.json's end_to_end metrics
END_TO_END = {
    "days_per_s": ("days/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed on the report lines only.  The raw times and the reference loop
# show what the scaling did.  The quality figures are defined on some
# workloads only, and their spread across seeds at these sizes exceeds the
# largest bound allowed (0.25)
REPORTED = {
    "days_per_s_raw": ("days/s", "higher"),
    "setup_s_raw": ("s", "lower"),
    "host_ref_s": ("s", "lower"),
    "failed_frac": ("fraction", "lower"),
    "picp90_gap": ("fraction", "lower"),
    "nd_mean": ("fraction", "lower"),
    "kl_mean": ("nats", "lower"),
    "slot_rmse_max": ("fraction", "lower"),
    "id_rel_rmse": ("fraction", "lower"),
}


class SetupError(RuntimeError):
    """The set-up child failed; there is nothing to measure."""


class Pass(NamedTuple):
    """One pass of the timed phase."""

    index: int                  # input directory it ran on
    traced: bool
    wall: float                 # seconds
    outcome: object             # workloads.Outcome
    ref: float                  # reference loop seconds around the pass


def environment() -> dict:
    """What the figures depend on besides the code."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return dict(nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                python=platform.python_version(),
                numpy=numpy.__version__, scipy=scipy.__version__, blas=blas,
                threads={v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
                git_rev=git_rev)


def run_setup(name: str, cfg, work: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", name,
           "--work", work, "--config", json.dumps(asdict(cfg)),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, env=bootstrap.pinned_env(), text=True,
                          capture_output=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_pass(name, cfg, work, index, inp, tracer=None):
    """Run and check one pass.

    Returns (wall seconds, outcome, raised, peak RSS in MB read before the
    check, so the check's own memory is not counted).
    """
    import layers
    import spans
    import workloads

    out = os.path.join(work, "out", str(index))
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.run_once(name, cfg, work, inp, out)
        else:
            with spans.patched(tracer, layers.PROBES):
                result = workloads.run_once(name, cfg, work, inp, out)
        wall = time.perf_counter() - t0
        rss = peak_rss_mb()
        return (wall, workloads.check(name, cfg, work, inp, out, result),
                False, rss)
    except Exception:           # the program failed: record it and stop
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        n = len(workloads.days_in(inp))
        return (wall, workloads.Outcome(attempted=n, failed=n,
                                        problems=["pass raised"]),
                True, peak_rss_mb())


def timed_phase(name: str, cfg, work: str, seconds: float, trace: int,
                setup_more=lambda: None, n_setups: int = 0):
    """Closed loop of passes cycling over the workload's inputs.

    ``setup_more`` is called ``n_setups`` times, spread evenly over the
    passes' time, which the set-ups do not use up.  A traced run runs each
    input untraced and then traced, and ends after a traced pass.

    Returns ``(passes, recheck, rss, tracer)``: ``passes`` holds a
    ``Pass`` each, its ``ref`` the mean of the reference loop timed just
    before and just after it; ``recheck`` is an untimed repeat of
    input 0, made when no input ran twice and a pass is short against the
    run, so every run checks that quality repeats under its seed; ``rss``
    is the peak memory in MB through the first pass, before its check.
    """
    import reference
    import spans
    import workloads

    tracer = spans.Tracer()
    ins = workloads.inputs(work)
    passes = []
    ref = reference.seconds()
    start = time.perf_counter()
    setups, setup_time = 0, 0.0
    while True:
        if trace:
            index, traced = (len(passes) // 2) % len(ins), len(passes) % 2
        else:
            index, traced = len(passes) % len(ins), False
        wall, outcome, raised, rss_now = one_pass(
            name, cfg, work, index, ins[index], tracer if traced else None)
        if not passes:
            rss = rss_now
        ref_after = reference.seconds()
        passes.append(Pass(index, bool(traced), wall, outcome,
                           (ref + ref_after) / 2))
        ref = ref_after
        if raised:
            return passes, None, rss, tracer
        elapsed = time.perf_counter() - start - setup_time
        while setups < n_setups and elapsed >= (setups + 1) * seconds / (
                n_setups + 1):
            t0 = time.perf_counter()
            setup_more()
            setup_time += time.perf_counter() - t0
            setups += 1
        median = statistics.median(p.wall for p in passes)
        if (len(passes) % (2 if trace else 1) == 0
                and elapsed + median > seconds):
            break
    while setups < n_setups:
        setup_more()
        setups += 1
    recheck = None
    if len(passes) <= len(ins) and median < seconds / 10:
        recheck = one_pass(name, cfg, work, 0, ins[0])[1]
    return passes, recheck, rss, tracer


def tally(passes, recheck) -> tuple[int, int, dict, list]:
    """Attempted and failed days, quality per input, and problems.

    A pass with a failed check fails all its days; quality must be finite
    and identical every time an input runs.
    """
    import workloads

    attempted = failed = 0
    quality, problems = {}, []
    for k, (index, _, _, o, _) in enumerate(passes):
        issues = list(o.problems)
        if not workloads.finite(o.quality):
            issues.append(f"non-finite quality {o.quality}")
        if quality.setdefault(index, o.quality) != o.quality:
            issues.append(f"quality differs on input {index}: {o.quality}")
        attempted += o.attempted
        failed += o.attempted if issues else o.failed
        problems += [f"pass {k}: {p}" for p in issues]
    if recheck is not None and (recheck.problems
                                or recheck.quality != quality[0]):
        failed += passes[0].outcome.attempted
        problems.append(f"repeat of input 0: quality {recheck.quality} "
                        f"{recheck.problems}")
    return attempted, failed, quality, problems


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 cfg=None, setup_reps: int = SETUP_REPS):
    """Set up, run and check one workload; returns (result, report lines)."""
    import layers
    import reference
    import spans
    import workloads

    load_at_start = os.getloadavg()
    cfg = cfg or workloads.config(name, seed)
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = run_setup(name, cfg, str(work), trace)
        setups = [setup]
        extra = str(work / "extra-setup")

        def setup_more():
            setups.append(run_setup(name, cfg, extra, 0))
            shutil.rmtree(extra, ignore_errors=True)

        passes, recheck, rss, tracer = timed_phase(
            name, cfg, str(work), seconds, trace, setup_more, setup_reps - 1)
        properties = dict(setup["properties"])
        if name == "identify_gappy":
            properties.update(workloads.identify_summary(
                cfg, str(work), [str(work / "out" / str(i))
                                 for i in {p.index for p in passes}]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted, failed, quality, problems = tally(passes, recheck)
    untraced = [p for p in passes if not p.traced]
    traced_walls = [p.wall for p in passes if p.traced]
    days = sum(p.outcome.attempted - p.outcome.failed for p in untraced)
    # times scaled to the nominal host by the reference loop around each
    # pass and set-up (reference.py); the raw figures go on report lines
    values = dict(
        days_per_s=days / sum(reference.scaled(p.wall, p.ref)
                              for p in untraced),
        setup_s=statistics.fmean(reference.scaled(u["setup_s"], u["ref_s"])
                                 for u in setups),
        peak_rss_mb=rss,
        days_per_s_raw=days / sum(p.wall for p in untraced),
        setup_s_raw=statistics.fmean(u["setup_s"] for u in setups),
        host_ref_s=statistics.median(
            [p.ref for p in passes] + [u["ref_s"] for u in setups]),
        failed_frac=failed / attempted)
    for key in quality[0]:
        values[key] = statistics.fmean(q[key] for q in quality.values()
                                       if key in q)
    if trace:
        metrics = layers.layer_metrics(
            tracer, traced_walls, spans.Tracer.from_dict(setup["trace"]),
            1, [p.wall for p in untraced])
        per_layer_ok = all(m["value"] is None or math.isfinite(m["value"])
                           for m in metrics.values())
    else:
        metrics = {k: dict(value=float(values[k]), unit=END_TO_END[k][0])
                   for k in END_TO_END}
        per_layer_ok = True
    correct = (failed == 0 and per_layer_ok
               and all(math.isfinite(v) for v in values.values()))

    env = dict(environment(), loadavg_at_start=load_at_start)
    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# workload {name} seed={seed} n_days={cfg.n_days} "
             f"passes untraced={len(untraced)} traced={len(traced_walls)} "
             f"inputs={len(quality)} "
             f"walls_s={[round(p.wall, 3) for p in passes]} "
             f"setup_s={[round(u['setup_s'], 3) for u in setups]}",
             "# properties " + json.dumps(properties, sort_keys=True)]
    for key, (unit, better) in {**END_TO_END, **REPORTED}.items():
        if key in values:
            lines.append(f"# {name}.{key} = {values[key]:.6g} {unit} "
                         f"({better} is better)")
    if trace:
        for key, m in metrics.items():
            note = f" missing {m['missing']}" if "missing" in m else ""
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"# layer {key} = {value} {m['unit']}{note}")
    lines += [f"# FAILED {p}" for p in problems]
    result = dict(correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap.enter():
        sys.stderr.write(f"no pvsde sources under {bootstrap.SRC}\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {workloads.WORKLOADS}\n")
        return 2
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"set-up failed: {exc}\n")
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
