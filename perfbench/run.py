#!/usr/bin/env python3
"""Benchmark of the ``collapsing`` command line, end to end and per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One process, one client, one job at a time (a closed
loop): each job is a real CLI invocation, ``collapsing.cli.main(argv)``,
with stdout captured.  A run repeats passes of the workload's jobs, each
pass on freshly built inputs (see ``workloads.py``), until ``--seconds``
would be exceeded, with at least two passes.  Each job's time is taken
per slot (its role in the pass) as the median over passes, so one slow
pass does not move the result.  After the last pass every job's exit code
and output are compared with an independent reference (``reference.py``),
outside all timed regions.

``--trace 0`` prints the end-to-end metrics:
  setup_s      median time for a fresh interpreter to import collapsing,
               plus the median time to build one pass's inputs
               (constructions, generated families, JSON files)
  wall_ref_s   sum over slots of the median job wall time: one pass
  peak_rss_mb  peak resident memory of the benchmark process or a child

Every timed region (a job, a pass's input build, a fresh import) is
timed by ``speed.timed``, which samples the host's speed before, during
and after it and rescales its wall time to a fixed reference speed: the
host's speed drifts by up to 1.8x from minute to minute.  Both times
above are in seconds at that speed; the raw wall times are in the run
record.

``--trace 1`` runs one traced pass and one untraced pass and prints the
per-layer metrics (``spans.py``), including ``trace.overhead_frac``.

The last stdout line is the result; the line before it is a record of the
machine, the inputs (seed and every job's argv), the subcommand breakdown
(verify_s, subsets_per_s, oracle_s, gram_s, search_s, cpu_s), error_rate
and any failures.  The record is also written to ``perfbench/_work/results``.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# The only parallelism is a job's own --threads: pin BLAS/OpenMP pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402
from speed import timed  # noqa: E402
from workloads import BUILDERS, PassContext  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
MIN_PASSES = 2
IMPORT_SAMPLES = 9
JOB_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no job starts later than this after process start
WINDOW_CAP_S = 110  # passes stop starting well before RUN_LIMIT_S


class JobTimeout(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds: float):
    def on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_job(main, job, timeout: float) -> dict:
    """Run one CLI job in this process; time it and capture its output."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        cpu0 = _cpu_s()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    _alarm(timeout):
                return main(list(job.argv)), None, _cpu_s() - cpu0
        except JobTimeout as exc:
            return None, str(exc), _cpu_s() - cpu0
        except (Exception, SystemExit) as exc:
            return None, f"{type(exc).__name__}: {exc}", _cpu_s() - cpu0

    gc.collect()
    (code, error, cpu), wall, ref, probes = timed(call)
    return {"slot": job.slot, "wall_s": wall, "ref_s": ref, "probes": probes, "cpu_s": cpu,
            "code": code, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}


def fresh_import_s() -> tuple:
    """Median time for a new interpreter to import collapsing, timed inside
    that interpreter: (raw, at the reference speed)."""
    here = str(Path(__file__).resolve().parent)
    code = (f"import json, sys; sys.path[:0] = [{here!r}, {str(SRC)!r}]; import speed; "
            "print(json.dumps(speed.timed(lambda: __import__('collapsing'))[1:3]))")
    samples = [json.loads(subprocess.run([sys.executable, "-c", code], check=True,
                                         capture_output=True, text=True).stdout)
               for _ in range(IMPORT_SAMPLES)]
    return (statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples))


def machine_info() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _threads() -> int:
    """--threads for the partitioned scan: 2, never above the usable CPUs."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(2, os.cpu_count() or 1, usable))


def slot_medians(passes, key: str) -> dict:
    per_slot: dict = {}
    for p in passes:
        for r in p["results"]:
            per_slot.setdefault(r["slot"], []).append(r[key])
    return {slot: statistics.median(v) for slot, v in per_slot.items()}


def breakdown(passes, jobs_by_slot) -> dict:
    """Subcommand times (at the reference speed) and subset throughput from
    the per-slot medians."""
    wall = slot_medians(passes, "ref_s")
    out = {"cpu_s": sum(slot_medians(passes, "cpu_s").values())}
    for command in ("verify", "oracle", "gram", "search"):
        slots = [s for s in wall if jobs_by_slot[s].command == command]
        if slots:
            out[f"{command}_s"] = sum(wall[s] for s in slots)
    counted = [s for s in wall if jobs_by_slot[s].subsets]
    if counted:
        out["subsets_per_s"] = sum(jobs_by_slot[s].subsets for s in counted) / sum(
            wall[s] for s in counted)
    return out


def per_layer_metrics(agg: dict, traced_pass, untraced_pass, jobs_by_slot) -> dict:
    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def module_self(layer):
        return sum(v["self_s"] for k, v in agg.items() if k.split(".")[0] == layer)

    m = {}
    traced = {r["slot"]: r["ref_s"] for r in traced_pass["results"]}
    untraced = {r["slot"]: r["ref_s"] for r in untraced_pass["results"]}
    common = [s for s in traced if s in untraced]
    m["trace.overhead_frac"] = (sum(traced[s] for s in common) / sum(untraced[s] for s in common)
                                - 1.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = module_self(layer)
    m["cli.main.self_s"] = get("cli.main", "self_s")
    for command in ("verify", "oracle", "gram", "search"):
        m[f"cli.cmd_{command}.total_s"] = get(f"cli.cmd_{command}", "total_s")
    for fn in ("family_from_json", "check_k_collapsing", "check_full_collapsing",
               "check_weak_balancing", "bnb_max_subfamily"):
        m[f"family.{fn}.self_s"] = get(f"family.{fn}", "self_s")
    scan_s = get("family.check_k_collapsing", "total_s") + get("family.check_full_collapsing",
                                                               "total_s")
    subsets = sum(jobs_by_slot[r["slot"]].subsets for r in traced_pass["results"])
    m["family.subsets_per_s"] = subsets / scan_s if scan_s else 0.0
    m["spaces.space_from_json.self_s"] = get("spaces.space_from_json", "self_s")
    m["spaces.norm_eval.calls"] = get("spaces.norm_eval", "calls")
    m["spaces.norm_eval.self_s"] = get("spaces.norm_eval", "self_s")
    m["spaces.norm_eval.total_s"] = get("spaces.norm_eval", "total_s")
    by_kind = agg.get("spaces.norm_eval", {}).get("by_tag", {})
    for kind in ("linf", "lp2", "l1sub", "slab", "vpoly"):
        calls, total = by_kind.get(kind, (0, 0.0))
        m[f"spaces.norm_eval.{kind}.us_per_call"] = 1e6 * total / calls if calls else 0.0
    m["spaces.dual_unit_vector.self_s"] = get("spaces.dual_unit_vector", "self_s")
    m["linalg.dot.self_s"] = get("linalg.dot", "self_s")
    m["linalg.rank_exact.total_s"] = get("linalg.rank_exact", "total_s")
    m["linalg.rref.self_s"] = get("linalg.rref", "self_s")
    m["linalg.solve_square.calls"] = get("linalg.solve_square", "calls")
    m["linalg.solve_square.self_s"] = get("linalg.solve_square", "self_s")
    calls = get("linalg.solve_square", "calls")
    singular = agg.get("linalg.solve_square", {}).get("by_tag", {}).get("singular", (0, 0.0))[0]
    m["linalg.solve_square.singular_frac"] = singular / calls if calls else 0.0
    m["linalg.solve_consistent.calls"] = get("linalg.solve_consistent", "calls")
    m["linalg.solve_consistent.self_s"] = get("linalg.solve_consistent", "self_s")
    m["lp.linprog_exact.calls"] = get("lp.linprog_exact", "calls")
    m["lp.linprog_exact.self_s"] = get("lp.linprog_exact", "self_s")
    m["lp.solve_standard.self_s"] = get("lp.solve_standard", "self_s")
    lp_calls = get("lp.linprog_exact", "calls")
    m["lp.linprog_exact.ms_per_call"] = (1e3 * get("lp.linprog_exact", "total_s") / lp_calls
                                         if lp_calls else 0.0)
    m["simplexopt.vertex_oracle.calls"] = get("simplexopt.vertex_oracle", "calls")
    m["simplexopt.vertex_oracle.self_s"] = get("simplexopt.vertex_oracle", "self_s")
    m["simplexopt.active_sets"] = (agg.get("linalg.solve_square", {}).get("by_parent", {})
                                   .get("simplexopt.vertex_oracle", 0))
    for fn in ("gram_from_family", "row_normalize", "rank_certificate"):
        m[f"matrixform.{fn}.self_s"] = get(f"matrixform.{fn}", "self_s")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(build, ctx, main, tracer) -> dict:
    """Build one pass's inputs (timed as set-up), then run its jobs in turn."""
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        jobs, setup_s, setup_ref_s, _ = timed(lambda: build(ctx))
        results = []
        for job in jobs:
            remaining = RUN_LIMIT_S - (time.perf_counter() - PROCESS_START)
            if remaining > 0:
                res = run_job(main, job, min(JOB_TIMEOUT_S, remaining))
            else:
                res = {"slot": job.slot, "wall_s": 0.0, "ref_s": 0.0, "probes": 0,
                       "cpu_s": 0.0, "code": None,
                       "error": "not started: run time limit reached", "stdout": "", "stderr": ""}
            res["job"] = job
            res["argv"] = [str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT)) else a
                           for a in job.argv]
            results.append(res)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"index": ctx.index, "traced": tracer is not None, "setup_s": setup_s,
            "setup_ref_s": setup_ref_s,
            "duration_s": time.perf_counter() - t0, "results": results}


def failures_of(passes) -> list:
    """Compare every job with the reference; runs after all timing is done."""
    failures = []
    for res in (r for p in passes for r in p["results"]):
        problem = res["error"]
        if problem is None:
            try:
                problem = res["job"].check(res["code"], res["stdout"])
            except Exception as exc:  # a malformed report must not stop the run
                problem = f"reference check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append({"slot": res["slot"], "argv": res["argv"], "problem": problem,
                             "stderr": res["stderr"][-500:]})
    return failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "collapsing" / "__init__.py").is_file():
        print(f"error: no collapsing package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import collapsing.cli

    if Path(collapsing.__file__).resolve().parent != (SRC / "collapsing").resolve():
        print(f"error: imported collapsing from {collapsing.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    rundir = WORK / f"run-{os.getpid()}"
    window = min(args.seconds, WINDOW_CAP_S)
    passes: list = []
    window_start = time.perf_counter()
    try:
        while True:
            if args.trace and len(passes) == 2:
                break
            elapsed = time.perf_counter() - window_start
            if not args.trace and len(passes) >= MIN_PASSES and (
                    elapsed + passes[-1]["duration_s"] > window):
                break
            index = len(passes)
            ctx = PassContext(seed=args.seed, index=index, workdir=rundir / f"pass{index}",
                              threads=_threads())
            ctx.workdir.mkdir(parents=True)
            passes.append(run_pass(BUILDERS[args.workload], ctx, collapsing.cli.main,
                                   tracer if index == 0 else None))
        peak_rss = _peak_rss_mb()
        failures = failures_of(passes)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    jobs_by_slot = {r["slot"]: r["job"] for p in passes for r in p["results"]}
    attempted = sum(len(p["results"]) for p in passes)
    if args.trace:
        metrics = per_layer_metrics(tracer.aggregate(), passes[0], passes[1], jobs_by_slot)
    else:
        import_s, import_ref_s = fresh_import_s()
        metrics = {
            "setup_s": import_ref_s + statistics.median(p["setup_ref_s"] for p in passes),
            "wall_ref_s": sum(slot_medians(untraced, "ref_s").values()),
            "peak_rss_mb": peak_rss,
        }
        raw = {"setup_s": import_s + statistics.median(p["setup_s"] for p in passes),
               "wall_s": sum(slot_medians(untraced, "wall_s").values())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "threads": _threads(),
        "passes": [{"index": p["index"], "traced": p["traced"], "setup_s": p["setup_s"],
                    "setup_ref_s": p["setup_ref_s"],
                    "jobs": [{k: r[k] for k in ("slot", "argv", "code", "wall_s", "ref_s",
                                                "probes", "cpu_s")}
                             for r in p["results"]]} for p in passes],
        "slot_wall_s": slot_medians(untraced, "wall_s"),
        "slot_ref_s": slot_medians(untraced, "ref_s"),
        "raw": None if args.trace else raw,
        "breakdown": breakdown(untraced, jobs_by_slot),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    for failure in failures:
        print(f"FAILED {failure['slot']}: {failure['problem']}", file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "metrics"}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".calls") or name == "simplexopt.active_sets":
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
