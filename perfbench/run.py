#!/usr/bin/env python3
"""End-to-end benchmark of the ``besselbeams`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload fields --seed 1 --seconds 36 --trace 0

Workload names, metric names and units are those of ``BENCHMARK.json``.  A
run makes a fixed number of passes (``workloads.pass_count``), each in a
fresh Python process.  That process imports the program from ``src/`` of the
checkout the script sits in, runs the workload's warm-up op, prints ``ready``
and then drives ``besselbeams.cli.main(argv)`` in-process over the pass's
ops: a closed loop with one client and one op at a time, no worker threads,
and one BLAS thread.  The CLI sees only the generated argv and config files
and writes its output into a scratch directory inside the checkout.  Each op's output is checked (``checks.py``)
after its timed call.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median time
from starting a pass process to its ``ready``.  ``--trace 1`` runs half the
passes untraced and half with the layer wrappers of ``tracing.py`` installed,
and reports the per-layer metrics.  Human-readable lines (environment, one
verdict per op, metrics with units) come first; the last line of stdout is
the JSON result.  Run details, including the spans of a traced run, go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DEADLINE_S = 170  # a pass process still running this long after the start is killed
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: with two on a 2-vCPU host, one verify-all op in every run
# took ~20% longer than the rest, and set-up took ~0.1 s longer.
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-index", type=int, help="internal: run this one pass in this process")
    return ap.parse_args(argv)


def _prepare_environment():
    """Pin BLAS threads and import besselbeams from this checkout's src/."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the CLI reads a default config from this variable; ops pass their own
    os.environ.pop("BESSELBEAMS_CONFIG", None)
    sys.path.insert(0, str(SRC))
    import besselbeams

    if not Path(besselbeams.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"besselbeams imported from {besselbeams.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# one pass, inside its own process
# ---------------------------------------------------------------------------


def run_op(cli, op, workdir, tracer=None):
    """Run one op through cli.main; returns (latency_s, exit code, output path, error)."""
    out = workdir / f"{op.op_id}.out"
    cfg = workdir / f"{op.op_id}.cfg"
    if op.config:
        cfg.write_text(op.config, encoding="utf-8")
    argv = [str(out) if a == workloads.OUT else str(cfg) if a == workloads.CONFIG else a
            for a in op.argv]
    if tracer is not None:
        tracer.op_id = op.op_id
    error = None
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        rc, error = None, traceback.format_exc(limit=3)
    return perf_counter() - t0, rc, out, error


def check_op(checks, op, latency, rc, out, error):
    """Verdict record for one finished op."""
    text = out.read_text(encoding="utf-8") if out.is_file() else ""
    if error is not None:
        passed, reason = False, "raised " + error.strip().splitlines()[-1]
    else:
        try:
            passed, reason = checks.check(op, rc, text)
        except Exception as exc:  # malformed output fails the check
            passed, reason = False, f"unreadable output: {exc!r}"
    return {
        "op": op.op_id,
        "kind": op.kind,
        "argv": op.describe(),
        "latency_s": latency,
        "rc": rc,
        "passed": passed,
        "reason": reason,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_pass(cli, checks, ops, workdir, tracer=None):
    """Closed loop over `ops`; returns (pass seconds, op records).

    Only the cli.main calls are timed; config writes and checks happen outside.
    """
    finished = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            finished.append((op,) + run_op(cli, op, workdir, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return sum(f[1] for f in finished), [check_op(checks, *f) for f in finished]


def known_defect(cli, checks, workdir):
    """Run the recorded ALG_TOL reproducer; report whether it still fails."""
    op = workloads.KNOWN_DEFECT
    rec = check_op(checks, op, *run_op(cli, op, workdir))
    state = "fixed" if rec["passed"] else "still present"
    return f"known-defect ALG_TOL (absolute algebra tolerance): {rec['argv']}: {state} (rc={rec['rc']}; {rec['reason']})"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "cpu": cpu,
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
    }


def pass_process(args):
    """Child side: import, warm up, print 'ready', run the pass, print its result as JSON."""
    _prepare_environment()
    import checks
    from besselbeams import cli

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        _, rc, _, error = run_op(cli, workloads.WARMUP[args.workload], Path(tmp))
        if rc != 0:
            print(f"perfbench: warm-up op failed (rc={rc}) {error or ''}", file=sys.stderr)
            return 1
        print("ready", flush=True)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        ops = workloads.make_pass(args.workload, args.seed, args.pass_index)
        seconds, records = run_pass(cli, checks, ops, Path(tmp), tracer)
        # once per untraced algebra run, outside the timed loop
        with_defect = args.workload == "algebra" and not args.trace and args.pass_index == 0
        defect = known_defect(cli, checks, Path(tmp)) if with_defect else None
    print(json.dumps({
        "seconds": seconds,
        "records": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
        "defect": defect,
        "trace": tracer.state() if tracer is not None else None,
    }))
    return 0


# ---------------------------------------------------------------------------
# the run: one process per pass
# ---------------------------------------------------------------------------


def spawn_pass(args, index, traced, deadline):
    """Run pass `index` in a fresh interpreter; its result, plus setup_s, the
    seconds from starting the interpreter to its 'ready'."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--pass-index", str(index)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline().strip()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or rc != 0:
        raise RuntimeError(f"pass {index} failed (rc={rc}, said {line!r})")
    return {**json.loads(rest.strip().splitlines()[-1]), "setup_s": ready}


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are ten or fewer."""
    lat = sorted(latencies)
    n = len(lat)
    i = n - 11 if n > 10 else n - 1
    return lat[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(results):
    setup = [res["setup_s"] for res in results]
    times = [res["seconds"] for res in results]
    lat = [r["latency_s"] for res in results for r in res["records"]]
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        # the whole op list of the run: a sum integrates the host's speed
        # swings over the run, where a median of a few passes follows them
        "batch_s": sum(times),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "peak_rss_mb": max(res["rss_mb"] for res in results),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "batch_s": f"all ops of {len(times)} passes",
        "op_p50_s": f"{len(lat)} ops",
        "op_tail_s": f"p{pct:.0f} of {len(lat)} ops, {beyond} beyond",
        "peak_rss_mb": "largest ru_maxrss of the pass processes",
    }
    return metrics, notes


def per_layer(results, plan):
    from tracing import Tracer

    tracer = Tracer()
    for res in results:
        if res["trace"] is not None:
            tracer.merge(res["trace"])
    plain = [res["seconds"] for res, (_, traced) in zip(results, plan) if not traced]
    traced = [res["seconds"] for res, (_, traced) in zip(results, plan) if traced]
    ratio = sum(traced) / sum(plain)  # equal pass counts: traced / untraced batch_s
    return tracer.metrics(ratio), tracer.spans


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "besselbeams" / "__init__.py").is_file():
        print(f"perfbench: no besselbeams package under {SRC}", file=sys.stderr)
        return 2
    if args.pass_index is not None:
        return pass_process(args)

    deadline = perf_counter() + DEADLINE_S
    # a traced run splits --seconds between untraced and traced passes
    n = workloads.pass_count(args.workload, args.seconds / (1 + args.trace))
    plan = [(i, False) for i in range(n)] + [(n + i, True) for i in range(n * args.trace)]
    results = [spawn_pass(args, i, traced, deadline) for i, traced in plan]
    records = [r for res in results for r in res["records"]]
    env, defect = results[0]["env"], results[0]["defect"]
    notes, spans = {}, []
    if args.trace:
        metrics, spans = per_layer(results, plan)
        declared = BENCH["per_layer"]
    else:
        metrics, notes = end_to_end(results)
        declared = BENCH["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} passes {len(plan)}")
    for r in records:
        verdict = "PASS" if r["passed"] else "FAIL"
        print(f"op {r['op']} {verdict} {r['latency_s']:.4f}s {r['argv']} :: {r['reason']}")
    if defect:
        print(defect)
    failed = sum(not r["passed"] for r in records)
    print(f"fail_ratio {failed / len(records):.4g} ({failed}/{len(records)} ops failed)")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {units[name]}{note}")

    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "env": env, "args": vars(args), "metrics": metrics,
        "setup_samples_s": [res["setup_s"] for res in results],
        "ops": records, "known_defect": defect,
        "spans": {"fields": ["id", "name", "start_s", "end_s", "parent", "op"], "rows": spans},
    }), encoding="utf-8")
    print(f"details {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
