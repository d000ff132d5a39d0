"""One round: replay an op list in this fresh interpreter.

    python3 perfbench/worker.py ROUND_JSON RESULT_JSON

ROUND_JSON holds {"ops": [...], "outdir": ..., "trace": bool, "spans": path,
"digests": {op id: expected digest}, "check": bool}.
The parent sets PYTHONPATH to the checkout's `src`.  Set-up (imports plus
one field of degree > 1, which pulls in sympy) is timed from the first line
of this file; then the ops run back to back, each timed alone, and only
after the loop are outputs read back, digested and, when "check" is set,
checked.

Times are this process's CPU time, scaled to a reference host speed.  The
ops are single-threaded and CPU-bound, so on an unshared machine CPU time
equals wall time; on a shared virtual machine it leaves out the time the
hypervisor gives this CPU to other guests (steal time).  What remains still
moves with the host: on a shared 2-vCPU machine the CPU time of identical
work changed by up to 35% between runs minutes apart, and by 10-25% between
rounds seconds apart.  So a fixed pure-Python probe runs before every op,
and each time is multiplied by its `speed`: PROBE_REF_S over the median
time of the probes around it.  A time then reads as on a host where the
probe takes PROBE_REF_S.  The probe is not the program's code, and the
garbage collector is held off while it runs, so a change to the program
moves the scale only through the caches it leaves warm or cold.
"""

import time

CLOCK = time.process_time
T0 = CLOCK()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

PROBE_REF_S = 0.0017      # the probe's CPU time on the machine the bounds were set on
PROBE_WINDOW = 3          # probes on each side of an op that set its speed


def main(round_path, result_path):
    with open(round_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import coxlen
    import coxlen.cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    coxlen.RealCyclotomicField(5)
    setup_s = CLOCK() - T0

    records = []
    kept = []
    probes = []
    near = []           # per record, the index of the probe run before it
    for op in spec["ops"]:
        probes.append(probe())
        for rec, value in run_op(op, spec["outdir"], tracer):
            records.append(rec)
            kept.append(value)
            near.append(len(probes) - 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer = None
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics()
        tracer.dump_spans(spec["spans"])

    for rec, k in zip(records, near):
        rec["speed"] = speed(probes, k)
        rec["dt"] *= rec["speed"]
    statuses, keys = check_all(records, kept, spec["digests"], spec["check"])
    out = {
        "setup_s": setup_s * speed(probes, 0), "peak_rss_mb": peak_rss_mb,
        "ops": records, "statuses": statuses,
        "distinct_keys": len(set(keys)), "keyed_ops": len(keys),
        "layer": layer, "absent": sorted(tracer.absent) if tracer else [],
        "versions": versions(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def probe():
    """CPU time of a fixed piece of pure-Python work (about 1.7 ms):
    fraction arithmetic, hashing and small lists, as in the program's exact
    layers.  The garbage collector is held off, so that it does not collect
    the program's objects inside the probe."""
    from fractions import Fraction     # imported here to stay out of set-up

    enabled = gc.isenabled()
    gc.disable()
    t = CLOCK()
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i + 3) * Fraction(3, i % 5 + 2)
        key = (i % 13, i * i % 17, i % 3)
        table[key] = table.get(key, 0) + acc.numerator % 1000
        row = [j * i for j in range(12)]
        table[tuple(row[:3])] = sum(row)
    dt = CLOCK() - t
    if enabled:
        gc.enable()
    return dt


def speed(probes, k):
    """Scale for a time taken next to probe k: PROBE_REF_S over the median
    of the probes within PROBE_WINDOW of it (1 without probes)."""
    import statistics

    near = probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
    return PROBE_REF_S / statistics.median(near) if near else 1.0


def run_op(op, outdir, tracer):
    """Yield (record, kept value) for the op and any follow-up op."""
    import coxlen

    if tracer is not None:
        tracer.op = op["id"]
    rec = {"id": op["id"], "slice": op.get("slice", op["kind"]), "outcome": "ok"}
    value = None
    t = CLOCK()
    try:
        if op["kind"] == "cli":
            path = os.path.join(outdir, op["id"].replace("/", "_"))
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = coxlen.cli.main(op["argv"] + ["--output", path])
                except SystemExit as e:
                    code = e.code
            value = path
            rec["code"] = code
        else:
            cm = coxlen.parse_coxeter_matrix(op["matrix"])
            if op["kind"] == "ball":
                value = coxlen.reflen_ball(cm, op["L"], op["D"])
            else:
                protocol = None
                if op["kind"] == "ladder":
                    protocol = coxlen.ReflenProtocol(use_exact_solver=False, d_cap=4)
                word = tuple("abcdefghijklmnopqrstuvwxyz".index(ch) for ch in op["word"])
                value = coxlen.reflen_element(cm, word, protocol)
    except coxlen.errors.CoxlenError as e:
        rec["outcome"] = "refused"
        rec["error"] = "%s: %s" % (type(e).__name__, e)
    except Exception as e:  # any other exception is a failed op, not a crash
        rec["outcome"] = "failed"
        rec["error"] = "%s: %s" % (type(e).__name__, e)
    rec["dt"] = CLOCK() - t
    if op["kind"] == "cli" and rec["outcome"] == "ok" and rec["code"] != op["expect"]:
        rec["outcome"] = "failed"
        rec["error"] = "exit %s, expected %s: %s" % (
            rec["code"], op["expect"], err.getvalue().strip()[:200])
    yield rec, (op, value)

    if op.get("follow") == "subgroups" and rec["outcome"] == "ok":
        with open(value, "rb") as fh:
            kind = json.loads(fh.read())["report"]["kind"]
        if kind == "NonAffine":
            follow = dict(op, id=op["id"] + "+subgroups", slice="subgroups",
                          argv=["subgroups"] + op["argv"][1:])
            follow.pop("follow")
            yield from run_op(follow, outdir, tracer)


def check_all(records, kept, digests, full):
    """Digest every output and compare it with `digests`; with `full`, also
    run every output check.  Returns (reflection-length statuses, element
    keys)."""
    import checks

    statuses = []
    keys = []
    for rec, (op, value) in zip(records, kept):
        if rec["outcome"] == "refused":
            # every op of a workload has an expected output, so a refusal
            # (a CoxlenError) leaves that output missing
            rec["outcome"] = "failed"
            rec["check_failed"] = "no output: %s" % rec["error"]
        elif rec["outcome"] != "ok" and rec["id"] in digests:
            rec["check_failed"] = "no output, digest %s expected" % digests[rec["id"]]
        if rec["outcome"] != "ok":
            continue
        try:
            if op["kind"] == "cli":
                if rec["code"] != 0:
                    continue
                with open(value, "rb") as fh:
                    data = fh.read()
                if full:
                    checks.check_cli(op["argv"], data)
                statuses += checks.cli_statuses(op["argv"], data)
                rec["digest"] = checks.digest(data)
            elif op["kind"] == "ball":
                if full:
                    checks.check_ball(op, value)
                statuses += [r.status for r in value.results.values()]
                rec["digest"] = checks.digest(checks.ball_rows(value))
            else:
                if full:
                    checks.check_element(op, value)
                statuses.append(value.status)
                keys.append(value.element.key)
                rec["digest"] = checks.digest(
                    dict(checks.result_record(value), word=op["word"]))
            # an op that failed at the reference commit has no digest yet
            expected = digests.get(rec["id"], rec["digest"])
            checks.require(expected == rec["digest"],
                           "digest %s differs from the expected %s"
                           % (rec["digest"], expected))
        except Exception as e:  # a report that cannot be parsed fails its check too
            rec["outcome"] = "failed"
            rec["check_failed"] = "%s: %s" % (type(e).__name__, e)
    return statuses, keys


def versions():
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "sympy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(sys.argv[1], sys.argv[2])
