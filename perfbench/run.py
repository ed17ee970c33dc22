"""repherd benchmark: time to verdict per workload, plus a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-gfp --seed 1 --seconds 40 --trace 0

One client drives ``repherd.cli.main(argv)`` in this process, in a closed
loop: each request starts when the previous one has returned.  With
``--trace 0`` the workload's pass is repeated a fixed number of times,
``--seconds`` divided by the workload's ``pass_s`` (fewer only if the next
pass would end after ``--seconds``), each pass after a fresh import.  The
machine's speed is sampled during every request and every set-up with a
short probe that does not involve repherd, and each time is rescaled to the
speed at which the probe takes ``REFERENCE_S``; the end-to-end metrics come
from the median over the passes.  With ``--trace 1`` two untraced passes and
one traced pass give the per-layer metrics.  The last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

# Set-up samples taken before each pass; the median of the run is reported.
SETUP_REPEATS = 3

# The machine this benchmark was built on runs a process up to 2x slower, for
# seconds to minutes at a time, when other tenants load it (README.md).  So
# the machine's speed is sampled during every timed call: a timer interrupts
# the call every PROBE_EVERY_S and times a short, fixed probe that does not
# involve repherd, and the probe also runs once right before and once right
# after the call.  The call's time, less the time spent in probes, is rescaled
# to the speed at which the probe takes REFERENCE_S: about its time there when
# the machine is not slowed down.
PROBE_EVERY_S = 0.02
REFERENCE_S = 0.0004
_rng = random.Random(5)
PROBE_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(6)] for _ in range(5)]


def probe_s():
    """Time of a Gauss-Jordan elimination over Q, in plain Python, that does not involve repherd."""
    m = [row[:] for row in PROBE_MATRIX]
    start = time.perf_counter()
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return time.perf_counter() - start


class SpeedSampler:
    """While active, times probe_s() every PROBE_EVERY_S from a SIGALRM handler."""

    def __init__(self):
        self.samples = []  # probe times
        self.spent = 0.0   # seconds spent in the handler

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


SAMPLER = SpeedSampler()


def calibrated(fn):
    """(result of fn(), its time in seconds less the probes', that time at the reference speed).

    The speed is sampled during the call only while SAMPLER is active;
    otherwise the probes before and after the call give it.
    """
    before = probe_s()
    mark, spent = len(SAMPLER.samples), SAMPLER.spent
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    probes = SAMPLER.samples[mark:]
    in_probes = SAMPLER.spent - spent
    after = probe_s()
    speed = statistics.mean(REFERENCE_S / t for t in probes + [before, after])
    return result, elapsed - in_probes, (elapsed - in_probes) * speed


def declared_units():
    """The unit of every metric, from BENCHMARK.json: {"end_to_end": {name: unit}, "per_layer": {...}}."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def _import_repherd():
    """Import the package fresh from the checkout's sources; returns repherd.io and repherd.cli."""
    for name in [m for m in sys.modules if m == "repherd" or m.startswith("repherd.")]:
        del sys.modules[name]
    importlib.import_module("repherd")
    return importlib.import_module("repherd.io"), importlib.import_module("repherd.cli")


def measure_setup(algebras):
    """Calibrated times to import repherd afresh and load every algebra of the workload, and the last cli."""

    def setup():
        rio, cli = _import_repherd()
        for path in algebras:
            rio.load_algebra(path)
        return cli

    times = []
    for _ in range(SETUP_REPEATS):
        cli, _, scaled = calibrated(setup)
        times.append(scaled)
    return times, cli


def run_request(cli, request):
    """(seconds, calibrated seconds, problems) for one request; a request that raises counts as failed."""
    out, err = io.StringIO(), io.StringIO()

    def send():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(request.argv), None
        except (Exception, SystemExit) as exc:
            return None, exc

    (rc, exc), elapsed, scaled = calibrated(send)
    if exc is not None:
        return elapsed, scaled, ["raised %s: %s" % (type(exc).__name__, exc)]
    text = out.getvalue()
    try:
        payload = json.loads(text) if text.strip() else None
    except ValueError:
        return elapsed, scaled, ["printed something that is not one JSON report"]
    problems = request.check(rc, payload)
    if rc == 4:
        problems.append("error: %s" % err.getvalue().strip())
    return elapsed, scaled, problems


class Pass:
    def __init__(self):
        self.times = []   # seconds per request
        self.scaled = []  # the same at the reference speed
        self.failed = 0


def run_pass(cli, workload, log, tracer=None):
    p = Pass()
    for k, request in enumerate(workload.requests):
        if tracer is not None:
            tracer.request = k
        elapsed, scaled, problems = run_request(cli, request)
        p.times.append(elapsed)
        p.scaled.append(scaled)
        if problems:
            p.failed += 1
            log("FAILED %s: %s" % (request.label, "; ".join(problems)))
    return p


def timed_run(workload, seconds, log):
    n_passes = max(1, int(seconds // workload.pass_s))
    setup_times, passes = [], []
    start = last = time.perf_counter()
    longest = 0.0
    with SAMPLER:
        while len(passes) < n_passes:
            # a pass that would end after --seconds is not started, so that a
            # run on a slowed-down machine or of a much slower commit still
            # ends in time; it then has fewer passes
            if passes and last + longest - start > seconds:
                break
            # each pass runs on a fresh import, so no cache carries over from the last
            times, cli = measure_setup(workload.algebras)
            setup_times += times
            passes.append(run_pass(cli, workload, log))
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    # each request's calibrated time, median over the run's passes
    typical = [statistics.median(p.scaled[k] for p in passes) for k in range(len(workload.requests))]
    log("passes=%d/%d measured pass_s=%s calibrated pass_s=%s"
        % (len(passes), n_passes, [round(sum(p.times), 3) for p in passes],
           [round(sum(p.scaled), 3) for p in passes]))
    metrics = {
        "wall_s": sum(typical),
        "req_p50_s": statistics.median(typical),
        "slowest_req_s": max(typical),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics


def traced_run(workload, out_dir, seed, log):
    _, cli = _import_repherd()
    plain = [run_pass(cli, workload, log) for _ in range(2)]
    # calibrated times, as in timed_run, so the machine's slow spells cancel
    # out; the speed sampler stays off here, so that no probe runs inside a span
    untraced_s = sum(min(p.scaled[k] for p in plain) for k in range(len(workload.requests)))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, workload, log, tracer)
    finally:
        tracer.uninstall()
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = sum(traced.scaled) - untraced_s
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "spans-%s-seed%d.json" % (workload.name, seed))
    tracer.dump(spans_path)
    log("untraced_s=%.3f traced_s=%.3f spans=%d -> %s"
        % (untraced_s, sum(traced.scaled), len(tracer.spans), os.path.relpath(spans_path, ROOT)))
    attempted = sum(len(p.times) for p in plain) + len(traced.times)
    failed = sum(p.failed for p in plain) + traced.failed
    return attempted, failed, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg):
        print("perfbench: " + msg, file=sys.stderr, flush=True)

    if not os.path.isfile(os.path.join(SRC, "repherd", "__init__.py")):
        log("no repherd sources under %s" % SRC)
        return 2
    sys.path.insert(0, SRC)
    # a catalog cache would turn repeated passes into disk reads
    os.environ.pop("REPHERD_CACHE_DIR", None)

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.build(args.workload, random.Random(args.seed), workdir, ROOT)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "requests": len(workload.requests),
                          "nproc": os.cpu_count(), "python": platform.python_version()}))
        if args.trace:
            attempted, failed, metrics = traced_run(workload, os.path.join(ROOT, ".perfbench_out"), args.seed, log)
        else:
            attempted, failed, metrics = timed_run(workload, args.seconds, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(units):
        log("measured metrics differ from those BENCHMARK.json declares: %s"
            % sorted(set(metrics).symmetric_difference(units)))
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
