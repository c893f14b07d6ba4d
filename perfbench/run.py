"""gupho benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {cli,spectrum,states} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gupho is imported from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json, measured with tracing off;
with ``--trace 1`` they are its per-layer metrics: every operation runs
twice, untraced and with a span around every call the benchmark makes into
gupho (spans stay in memory and are written to perfbench/out/ at the end),
and then single layers are probed directly.

A run cycles through a pool of inputs drawn from the seed (see
workloads.inputs) and always completes the first pass.  Every operation's
result is checked against the references in oracle.py outside the timed
region.  An operation fails when it raises one of gupho's typed errors,
exits non-zero, or misses its reference.  ``attempted`` is the number of
inputs in the pool and ``failed`` the number that failed in any execution,
so both depend on the seed alone.  ``correct`` is false when a failure lies
outside the defect regime the workload documents (see
workloads.known_failure), when an operation crashed, or when executions of
one input disagree.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from functools import partial
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPS = 9  # fresh interpreters per run, spread over it; setup_s is their median
PROBE_REPS = 3
TRACED_SHARE = 0.8  # share of --seconds a traced run spends on paired operations; probes follow
MODULES = ("cli", "checks", "spectrum", "states", "specfun", "gup", "fm")
SETUP_CODE = "import workloads; workloads.warm_up({!r}); print('ready', flush=True)"


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans kept in flat arrays: one per operation and one per call into gupho.

    A span records its name, start and end (perf_counter_ns), the index of
    its parent span (-1 for an operation) and its operation id; ``error``
    marks a call that raised.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self._op_id = -1
        self._op_span = -1

    def _add(self, name, parent, start, end, error) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(idx)
        self.op.append(self._op_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.error.append(error)
        return len(self.name) - 1

    def begin_op(self, op_id: int, name: str) -> None:
        self._op_id = op_id
        self._op_span = self._add(name, -1, time.perf_counter_ns(), 0, 0)

    def end_op(self, failed: bool) -> None:
        self.end[self._op_span] = time.perf_counter_ns()
        self.error[self._op_span] = int(failed)

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except BaseException:
            self._add(name, self._op_span, start, time.perf_counter_ns(), 1)
            raise
        self._add(name, self._op_span, start, time.perf_counter_ns(), 0)
        return result

    def by_name(self):
        """{name: (calls, errors, total ns)} over the call spans."""
        stats = {}
        for idx, parent, start, end, error in zip(self.name, self.parent, self.start, self.end, self.error):
            if parent < 0:
                continue
            calls, errors, total = stats.get(self.names[idx], (0, 0, 0))
            stats[self.names[idx]] = (calls + 1, errors + error, total + end - start)
        return stats

    def op_ns(self) -> int:
        return sum(e - s for p, s, e in zip(self.parent, self.start, self.end) if p < 0)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span,parent,op,name,start_ns,end_ns,error\n")
            for i, row in enumerate(zip(self.parent, self.op, self.name, self.start, self.end, self.error)):
                parent, op, idx, start, end, error = row
                handle.write(f"{i},{parent},{op},{self.names[idx]},{start},{end},{error}\n")


class Record(NamedTuple):
    latency: float  # wall seconds of the operation
    cpu: float  # user plus system CPU seconds of the operation
    status: str  # "ok", "error" (typed error), "miss" (wrong answer or exit code) or "crash"
    expected: bool  # a failure inside the workload's documented defect regime
    detail: str


def execute(wl, workload, inp, op, who, tracer=None, op_id=0, tally=None) -> Record:
    """One operation, timed, then checked against its reference after the clock stops."""
    call = tracer.call if tracer else wl.direct
    out, status, detail = None, "ok", ""
    if tracer:
        tracer.begin_op(op_id, f"op.{workload}")
    cpu0 = _cpu_s(who)
    t0 = time.perf_counter()
    try:
        out = op(inp, call)
    except wl.TYPED_ERRORS as exc:
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # keep measuring; the run is reported incorrect
        status, detail = "crash", f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    t1 = time.perf_counter()
    cpu1 = _cpu_s(who)
    if tracer:
        tracer.end_op(status != "ok")
    if status == "ok":
        problems = wl.check(workload, inp, out)
        if problems:
            status, detail = "miss", "; ".join(problems[:3])
        elif tally:
            tally(out)
    expected = status in ("error", "miss") and wl.known_failure(workload, inp)
    return Record(t1 - t0, cpu1 - cpu0, status, expected, detail)


def _who(workload):
    return resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF


def _pool_steps(wl, pool, deadline):
    """(step, input) through the pool, pass after pass, until the deadline.

    The first pass always completes, so every input of the pool is attempted
    and checked in every run, whatever the speed of the machine.
    """
    step = 0
    while step < len(pool) or time.perf_counter() < deadline:
        yield step, wl.for_pass(pool[step % len(pool)], step // len(pool))
        step += 1


def run_ops(wl, workload, pool, op, seconds, side_task, side_count):
    """Closed loop with tracing off: one operation at a time until the time is up.

    ``side_task`` runs ``side_count`` times between operations, at evenly
    spaced moments, so that what it measures sees the same machine as the
    operations do.
    """
    who = _who(workload)
    start = time.perf_counter()
    side_times = [start + (k + 0.5) * seconds / side_count for k in range(side_count)]
    records = []
    for _, inp in _pool_steps(wl, pool, start + seconds):
        if side_times and time.perf_counter() >= side_times[0]:
            side_times.pop(0)
            side_task()
        records.append(execute(wl, workload, inp, op, who))
    return records


def run_traced(wl, workload, pool, op, seconds, tracer, tally):
    """Each input runs twice, untraced and traced, alternating which goes first.

    Returns the traced records and the untraced wall time of the same
    operations, whose ratio is the tracing overhead.
    """
    who = _who(workload)
    records, plain_s = [], 0.0
    for i, inp in _pool_steps(wl, pool, time.perf_counter() + seconds):
        if i % 2:
            records.append(execute(wl, workload, inp, op, who, tracer, i, tally))
        plain_s += execute(wl, workload, inp, op, who).latency
        if not i % 2:
            records.append(execute(wl, workload, inp, op, who, tracer, i, tally))
    return records, plain_s


def setup_once(workload, env) -> float:
    """Wall time from starting a fresh interpreter until the workload could issue its first op."""
    t0 = time.perf_counter()
    if workload == "cli":
        proc = subprocess.run([sys.executable, "-c", "import gupho.cli"], env=env,
                              capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        ready = proc.returncode == 0
    else:
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE.format(workload)],
                              env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            ready = proc.wait(timeout=120) == 0 and line == b"ready\n"
    if not ready:
        raise RuntimeError(f"set-up of the {workload} workload failed in a fresh interpreter")
    return elapsed


def outcomes(records, pool_size):
    """Outcome of each pool input over all of its executions.

    Returns (failed, unexpected): the positions of inputs that failed in any
    execution, and descriptions of failures outside the workload's
    documented defect regime, including an input whose outcome changed
    between executions of the same run.
    """
    seen, failed, unexpected = {}, set(), []
    for k, r in enumerate(records):
        index = k % pool_size
        if r.status != "ok":
            failed.add(index)
            if not r.expected:
                unexpected.append(f"input {index}: {r.detail}")
        if seen.setdefault(index, r.status) != r.status:
            unexpected.append(f"input {index}: {seen[index]} in one execution, {r.status} in another")
    return failed, unexpected


def end_to_end(records, pool_size, setup, peak_rss_kb):
    ok = [r.latency for r in records if r.status == "ok"]
    if len(ok) < 2:
        raise RuntimeError(f"only {len(ok)} operations completed; cannot report latencies")
    wall = sum(r.latency for r in records)
    failed, _ = outcomes(records, pool_size)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ok) / wall,
        "latency_p50_ms": statistics.median(ok) * 1e3,
        "latency_p90_ms": statistics.quantiles(ok, n=10, method="inclusive")[8] * 1e3,
        "ok_frac": 1.0 - len(failed) / pool_size,
        "cpu_ms_per_op": sum(r.cpu for r in records) / len(records) * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


# ---------------------------------------------------------- per-layer probes


def _parse_importtime(stderr: str):
    """(numpy cumulative ms, gupho's own modules self ms, gupho.cli cumulative ms)."""
    numpy_us = gupho_us = total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header row
        name = fields[2].strip()
        if name == "numpy":
            numpy_us = cumulative_us
        if name == "gupho" or name.startswith("gupho."):
            gupho_us += self_us
        if name == "gupho.cli":
            total_us = cumulative_us
    return numpy_us / 1e3, gupho_us / 1e3, total_us / 1e3


def probe_cli(wl, seed, env):
    metrics = {}
    interp, numpy_ms, gupho_ms, total_ms = [], [], [], []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gupho.cli"],
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        for acc, value in zip((numpy_ms, gupho_ms, total_ms), _parse_importtime(proc.stderr)):
            acc.append(value)
    metrics["cli.interp_ms"] = statistics.median(interp)
    metrics["cli.import_numpy_ms"] = statistics.median(numpy_ms)
    metrics["cli.import_gupho_ms"] = statistics.median(gupho_ms)
    metrics["cli.import_total_ms"] = statistics.median(total_ms)

    from gupho import cli

    first = wl.first_cli_inputs(seed)
    for command in wl.CLI_COMMANDS:
        times = []
        for _ in range(PROBE_REPS):
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(first[command]["argv"])
            times.append((time.perf_counter() - t0) * 1e3)
            if code != 0:
                raise RuntimeError(f"in-process `gupho {command}` exited {code}")
        metrics[f"cli.main.{command}_ms"] = statistics.median(times)
    return metrics


def probe_checks():
    from gupho import checks

    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        checks.run_suite()
        times.append((time.perf_counter() - t0) * 1e3)
    return {"checks.run_suite_ms": statistics.median(times)}


def probe_specfun(wl, seed):
    """Direct Gegenbauer calls with the (n, lam, grid) shapes the states operations use."""
    import oracle
    from gupho import specfun

    shapes = []
    for inp in wl.inputs("states", seed)[:3]:
        lam = oracle.state_params(inp["branch"], inp["mass"], inp["omega"], inp["eta"], inp["gamma"], 0)[2]
        shapes += [(n, lam) for n in range(inp["nmax"] + 1)]
    total_ns = 0
    for _ in range(PROBE_REPS):
        for n, lam in shapes:
            t0 = time.perf_counter_ns()
            specfun.gegenbauer(n, lam, wl.RHO_GRID)
            total_ns += time.perf_counter_ns() - t0
    return {"specfun.gegenbauer.ns_per_point": total_ns / (PROBE_REPS * len(shapes) * wl.RHO_GRID.size)}


def layer_metrics(wl, tracer, counters):
    stats = tracer.by_name()

    def per_call(name, per=1.0):
        calls, _, total = stats.get(name, (0, 0, 0))
        return total / calls / per if calls else 0.0

    levels = counters.get("levels", 0)
    wo_calls = stats.get("states.weighted_overlap", (0,))[0]
    ip_calls = stats.get("states.inner_product", (0,))[0]
    order = getattr(sys.modules["gupho.states"], "DEFAULT_QUAD_ORDER", 0)
    make_calls = sum(stats.get(f"states.make_state.{b}", (0,))[0] for b in ("nr", "rel"))
    make_errors = sum(stats.get(f"states.make_state.{b}", (0, 0))[1] for b in ("nr", "rel"))
    ip_errors = stats.get("states.inner_product", (0, 0))[1]
    rows = len(wl.N_LIST) * wl.XI_STEPS
    metrics = {
        "spectrum.energy_relativistic.us_per_call": per_call("spectrum.energy_relativistic", 1e3),
        "spectrum.iterations_per_level": counters.get("iterations", 0) / levels if levels else 0.0,
        "spectrum.bisection_frac": counters.get("bisection", 0) / levels if levels else 0.0,
        "spectrum.energy_nonrel.us_per_call": per_call("spectrum.energy_nonrel", 1e3),
        "spectrum.ratio_sweep.us_per_row": per_call("spectrum.ratio_sweep", 1e3 * rows),
        "gup.fm_problem_of.us_per_call": per_call("gup.fm_problem_of", 1e3),
        "fm.fm_quantization_residual.us_per_call": per_call("fm.fm_quantization_residual", 1e3),
        "states.make_state.nr.us_per_call": per_call("states.make_state.nr", 1e3),
        "states.make_state.rel.us_per_call": per_call("states.make_state.rel", 1e3),
        "states.weighted_overlap.us_per_call": per_call("states.weighted_overlap", 1e3),
        "states.inner_product.us_per_call": per_call("states.inner_product", 1e3),
        # inner_product evaluates the overlap at the order and at twice the order
        "states.quad_nodes_per_overlap": (order * wo_calls + 3 * order * ip_calls) / (wo_calls + ip_calls)
        if wo_calls + ip_calls else 0.0,
        "states.eval_state.ns_per_point": per_call("states.eval_state", wl.RHO_GRID.size),
        "states.apply_ladder.us_per_point": per_call("states.apply_ladder", 1e3),
        "states.quad_error_frac": (make_errors + ip_errors) / (make_calls + ip_calls)
        if make_calls + ip_calls else 0.0,
    }
    op_ns = tracer.op_ns()
    for module in MODULES:
        busy = sum(total for name, (_, _, total) in stats.items() if name.split(".")[0] == module)
        metrics[f"layer_share.{module}"] = busy / op_ns if op_ns else 0.0
    return metrics


def tally_spectrum(counters, out):
    for level in out["rel"]:
        counters["levels"] = counters.get("levels", 0) + 1
        counters["iterations"] = counters.get("iterations", 0) + getattr(level, "iterations", 0)
        counters["bisection"] = counters.get("bisection", 0) + (getattr(level, "method", "") == "bisection")


# ------------------------------------------------------------------- main


def _summary(workload, seed, records, pool_size, extra):
    counts = {}
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
    failed, unexpected = outcomes(records, pool_size)
    lines = [
        f"workload={workload} seed={seed} inputs={pool_size} failed_inputs={len(failed)} "
        f"fail_frac={len(failed) / pool_size:.6g}",
        f"executions={len(records)} passes={len(records) / pool_size:.2f} by_status={counts}",
        f"latency samples={counts.get('ok', 0)} beyond_p90={counts.get('ok', 0) // 10}",
    ]
    lines += [f"unexpected failure: {d}" for d in unexpected[:5]]
    lines += [f"{k} = {v!r}" for k, v in extra.items()]
    return lines, len(failed), not unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gupho", "__init__.py")):
        print(f"gupho sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path[:0] = [SRC]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}", file=sys.stderr)
        return 2
    if not sys.modules["gupho"].__file__.startswith(SRC):
        print("gupho was not imported from this checkout", file=sys.stderr)
        return 2

    workload, seed = args.workload, args.seed
    pool = wl.inputs(workload, seed)
    env = wl.cli_env(SRC)
    child_env = dict(env, PYTHONPATH=os.pathsep.join((SRC, BENCH_DIR)))
    if workload == "cli":
        op = partial(wl.cli_op, env=env)
    else:
        op = wl.spectrum_op if workload == "spectrum" else wl.states_op
        wl.warm_up(workload)

    if args.trace == 0:
        setup = [setup_once(workload, child_env)]
        records = run_ops(wl, workload, pool, op, args.seconds,
                          lambda: setup.append(setup_once(workload, child_env)), SETUP_REPS - 1)
        peak_rss_kb = resource.getrusage(_who(workload)).ru_maxrss
        values = end_to_end(records, len(pool), setup, peak_rss_kb)
        specs = spec["end_to_end"]
        extra = {"setup_s_samples": setup}
    else:
        tracer, counters = Tracer(), {}
        tally = partial(tally_spectrum, counters) if workload == "spectrum" else None
        records, plain_s = run_traced(wl, workload, pool, op, TRACED_SHARE * args.seconds, tracer, tally)
        values = layer_metrics(wl, tracer, counters)
        values["trace.overhead_frac"] = sum(r.latency for r in records) / plain_s - 1.0
        values.update(probe_cli(wl, seed, env))
        values.update(probe_checks())
        values.update(probe_specfun(wl, seed))
        specs = spec["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.csv.gz")
        tracer.write(spans_path)
        extra = {"spans": len(tracer.name), "spans_file": os.path.relpath(spans_path, ROOT)}

    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    lines, failed, correct = _summary(workload, seed, records, len(pool), extra)
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    result = {"correct": correct, "attempted": len(pool), "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(result, summary=lines), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
