"""The coxlen benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`.  A run replays the workload's seeded op list in fresh
interpreters, one round after another, until `--seconds` is used up (at
least three rounds), so module caches start cold in every round, as they do
for a CLI user.  One caller, one single-threaded process at a time.  Times
are CPU times scaled to a reference host speed by a probe run before every
op (see worker.py).

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the
line before it holds the run's context (versions, nproc, commit, seed, op
counts, share of repeated inputs, every failed op).  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs one untraced round, then traced rounds
and the hot-primitive rows, and reports the per-layer metrics (see
tracing.py for the layer-to-metric map).  Spans of the last traced round are
written to `.perfbench_out/spans-<workload>.json`.

`ok_frac` is the share of attempted ops that did not fail (1 - failed_frac):
the driver's bounds are relative, so a metric that is 0 on a clean workload
cannot carry one.  An op fails when it raises anything but a CoxlenError,
exits with another code than expected, or fails its output check (an op
that raises a CoxlenError has no output, so it fails its check).  No op of
a workload fails at the seed commit, so `correct` is false when any op
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
DEADLINE_S = 170          # every run must end within 180 s
# each op's reported time is its median over at least this many untraced
# rounds, even when that overruns --seconds on a slow host
MIN_ROUNDS = 3


def _registry():
    """{metric: unit} of the end-to-end and of the per-layer metrics, as
    BENCHMARK.json names them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run_child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % args[0])
    try:
        proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within the run's deadline" % args[0]) from None
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s" % (args[0], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def run_round(ops, workload, trace, tag, digests=None, deadline=None, check=True):
    """Replay `ops` once in a fresh interpreter; returns the worker's result.

    Outputs must match `digests` where given; `check` runs the full output
    checks as well."""
    deadline = deadline or time.monotonic() + DEADLINE_S
    round_dir = os.path.join(OUT_DIR, tag)
    os.makedirs(round_dir, exist_ok=True)
    spec_path = os.path.join(round_dir, "round.json")
    result_path = os.path.join(round_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "outdir": round_dir, "trace": trace,
                   "spans": os.path.join(OUT_DIR, "spans-%s.json" % workload),
                   "digests": digests or {}, "check": check}, fh)
    _run_child([os.path.join(HERE, "worker.py"), spec_path, result_path], deadline)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _op_times(rounds):
    """Each op's median time over the rounds.  The host's speed drifts by
    10-20% over seconds, so a per-op median is steadier than any one round."""
    times = {}
    for r in rounds:
        for rec in r["ops"]:
            times.setdefault(rec["id"], []).append(rec["dt"])
    return [statistics.median(v) for v in times.values()]


def _summarize(plain):
    """End-to-end metrics over the untraced rounds."""
    recs = [rec for r in plain for rec in r["ops"]]
    op_times = _op_times(plain)
    statuses = [s for r in plain for s in r["statuses"]]
    failed = sum(1 for rec in recs if rec["outcome"] == "failed")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": sum(op_times),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_p90_ms": _p90(op_times) * 1e3,
        "ok_frac": 1 - failed / len(recs),
        "exact_frac": statuses.count("Exact") / len(statuses) if statuses else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def _layer_metrics(names, plain, traced, micro):
    values = {}
    absent = []
    for name in names:
        if name == "trace_overhead_frac":
            values[name] = sum(_op_times(traced)) / sum(_op_times(plain)) - 1
        elif "_us." in name:
            if name in micro:
                values[name] = micro[name]
            else:
                absent.append(name)
                values[name] = 0
        else:
            seen = [r["layer"].get(name) for r in traced]
            if any(v is None for v in seen):
                absent.append(name)
                values[name] = 0
            else:
                values[name] = statistics.mean(seen)
    return values, absent


def run_benchmark(workload, seed, seconds, trace, ops=None):
    """Run one benchmark run; returns (context, result) as printed.

    `ops` replaces the workload's seeded op list (the benchmark's tests pass
    short lists); the recorded digests are then not compared."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "coxlen", "__init__.py")):
        raise BenchError("no coxlen source under %s" % os.path.join(ROOT, "src"))
    end_to_end, per_layer = _registry()
    digests = {}
    if ops is None:
        ops = workloads.make_ops(workload, seed)
        if seed == workloads.DEFAULT_SEED:
            with open(DIGESTS_PATH, encoding="utf-8") as fh:
                digests = json.load(fh)[workload]
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    plain, traced, micro = [], [], {}
    try:
        # compiles bytecode and warms the file cache; not measured
        run_round([], workload, False, tag + "-warm", deadline=deadline)
        round_s = []
        while True:
            t = time.monotonic()
            # the first round runs every output check; later rounds must
            # reproduce its outputs byte for byte, and an op that failed its
            # check there fails it again
            r = run_round(ops, workload, False, "%s-r%d" % (tag, len(plain)), digests,
                          deadline, check=not plain)
            if not plain:
                digests = dict(digests, **{
                    rec["id"]: "none (failed its check)" if "check_failed" in rec
                    else rec["digest"]
                    for rec in r["ops"] if "digest" in rec or "check_failed" in rec})
            plain.append(r)
            round_s.append(time.monotonic() - t)
            left = start + seconds - time.monotonic()
            if trace or len(plain) >= MIN_ROUNDS and left < statistics.median(round_s):
                break
        if trace:
            while True:
                t = time.monotonic()
                traced.append(run_round(ops, workload, True, "%s-t%d" % (tag, len(traced)),
                                        digests, deadline, check=False))
                if start + seconds - time.monotonic() < time.monotonic() - t:
                    break
            micro = json.loads(_run_child([os.path.join(HERE, "micro.py")], deadline))
    finally:
        for name in os.listdir(OUT_DIR) if os.path.isdir(OUT_DIR) else ():
            if name.startswith(tag):
                shutil.rmtree(os.path.join(OUT_DIR, name), ignore_errors=True)

    rounds = plain + traced
    recs = [rec for r in rounds for rec in r["ops"]]
    if trace:
        units = per_layer
        metrics, absent = _layer_metrics(units, plain, traced, micro)
    else:
        units = end_to_end
        metrics, absent = _summarize(plain), []
    if workload == "cli-batch":
        repeated = workloads.repeated_share(ops)
    else:
        first = plain[0]
        repeated = 1 - first["distinct_keys"] / first["keyed_ops"] if first["keyed_ops"] else 0.0
    failed = [rec for rec in recs if rec["outcome"] == "failed"]
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _git_commit(), "nproc": os.cpu_count(),
        "versions": plain[0]["versions"],
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "op_list": len(ops), "ops_per_round": len(plain[0]["ops"]),
        "op_samples": sum(len(r["ops"]) for r in plain),
        "repeated_input_share": repeated,
        "failed_frac": len(failed) / len(recs),
        # the median factor times were scaled by to the reference speed
        # (worker.PROBE_REF_S); above 1 the host ran faster than the reference
        "speed_scale": statistics.median(rec["speed"] for rec in recs),
        "failed_ops": sorted({(rec["id"], rec["slice"],
                               rec.get("check_failed") or rec.get("error", ""))
                              for rec in failed}),
        "absent_metrics": absent,
    }
    result = {
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return context, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        context, result = run_benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except (BenchError, OSError) as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
