#!/usr/bin/env python3
"""End-to-end benchmark of the slimsim CLI (see README.md for the method).

Run from the root of a source checkout:

  python3 bench_e2e/run.py --workload W --seed S --seconds T --trace 0|1
  python3 bench_e2e/run.py --workload all --seed S --reps R --out FILE
  python3 bench_e2e/run.py --smoke
  python3 bench_e2e/run.py compare OLD.json NEW.json

The first form builds the CLI and the trace child with dune, measures one
workload for T seconds and prints, as its last stdout line, one JSON object
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  Every invocation's output is checked.  The second form
runs R rounds over every workload, round-robin, with seeds S..S+R-1 and both
trace modes, and writes the runs to FILE for `compare`.
"""

import argparse
import collections
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(".bench_build", "e2e")
CLI_TARGET = "bin/slimsim_cli.exe"
CLI = os.path.join("_build", "default", CLI_TARGET)
TRACE = os.path.join("_build", "default", BENCH_DIR, "trace.exe")
RUSAGE = os.path.join("_build", "default", BENCH_DIR, "rusage.exe")
PROBE = os.path.join("_build", "default", BENCH_DIR, "probe.exe")
CLI_PROGRAM = [CLI]
TRACE_PROGRAM = [TRACE, "--cli", CLI]
# probe.exe's median run time on the reference host (2-core Xeon at
# 2.1 GHz, no other load); see README.md, "Host noise"
PROBE_REFERENCE_S = 0.032
MODELS = os.path.join("examples", "models")
SETUP_REPS = 21
DEADLINE_S = 170.0  # a run must end within 180 s, its first build aside


class Failure(Exception):
    """An invocation that exited non-zero or whose output failed a check."""


# --- statistics -------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(old, new, bound, better):
    """Classify NEW against OLD for one metric.  Returns (verdict, delta),
    delta being the change of the median as a share of the old one,
    positive when worse.  Unresolved: the quartile spread of either side
    exceeds the bound, unless every new run beats every old one.
    Improved: the median moved by more than the old spread and new runs
    win at least nine tenths of all (new, old) pairs."""
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (median(new) - median(old)) / abs(median(old))
    wins = sum(sign * n < sign * o for n in new for o in old) / (len(new) * len(old))
    if max(rel_spread(old), rel_spread(new)) > bound:
        return ("improved" if wins == 1.0 else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    if -delta > rel_spread(old) and wins >= 0.9:
        return "improved", delta
    return "unchanged", delta


# --- processes --------------------------------------------------------------

class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def child_env():
    env = dict(os.environ)
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["DUNE_CACHE"] = "disabled"
    return env


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, deadline, env):
    """Run argv to completion under rusage.exe; return (wall_s, cpu_s,
    peak_rss_mb, stdout).  The process group is killed at the deadline."""
    timeout = min(150.0, deadline.left())
    if timeout <= 0:
        raise Failure("run deadline reached before %s" % argv[0])
    err_path = os.path.join(WORK, "stderr.txt")
    with open(err_path, "wb") as err:
        p = subprocess.Popen([RUSAGE] + argv, stdout=subprocess.PIPE, stderr=err,
                             env=env, start_new_session=True)
        killer = threading.Timer(timeout, kill_group, (p.pid,))
        killer.start()
        try:
            out, _ = p.communicate()
        except BaseException:
            kill_group(p.pid)
            p.wait()
            raise
        finally:
            killer.cancel()
    out = out.decode()
    body, _, last = out.rstrip("\n").rpartition("\n")
    fields = last.split()
    if p.returncode != 0 or len(fields) != 5 or fields[0] != "rusage" or fields[1] != "0":
        with open(err_path, "rb") as f:
            tail = f.read()[-600:].decode(errors="replace")
        raise Failure("%s failed (%s): %s" % (" ".join(argv[:3]), last[-80:], tail))
    return float(fields[2]), float(fields[3]), int(fields[4]) / 1024.0, body


# --- output parsing and checks ----------------------------------------------

EST = re.compile(
    r"^p = (?P<p>[0-9.]+) in \[[0-9.]+, [0-9.]+\] \((?P<succ>\d+)/(?P<paths>\d+) "
    r"paths, (?P<dead>\d+) dead/timelocked, [0-9.]+s\)$")
COST = re.compile(
    r"^E\[cost\] = (?P<mean>\S+)  \[\S+, \S+\]  \((?P<sat>\d+) sat paths; "
    r"p = (?P<p>[0-9.]+)  \[[0-9.]+, [0-9.]+\], (?P<paths>\d+) paths, [0-9.]+s\)$")
EXACT = re.compile(r"^p = (?P<p>[0-9.]+) \(\d+ states, \d+ after lumping, [0-9.]+s\)$")
WALL_FIELD = re.compile(r", [0-9.]+s\)$")


def report_line(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise Failure("no output")
    return lines[0]


def strip_wall(line):
    return WALL_FIELD.sub(", <wall>)", line)


def parse(pattern, out):
    m = pattern.match(report_line(out))
    if not m:
        raise Failure("unexpected output: %r" % report_line(out)[:200])
    return m


def check_estimate(out, p_ref, eps):
    m = parse(EST, out)
    if int(m["dead"]) != 0:
        raise Failure("dead/timelocked paths: %s" % m["dead"])
    if abs(float(m["p"]) - p_ref) > eps:
        raise Failure("p = %s is more than %g from %g" % (m["p"], eps, p_ref))
    return {"paths": int(m["paths"]), "successes": int(m["succ"])}


def check_cost(out, mean_ref, eps):
    m = parse(COST, out)
    if m["sat"] != m["paths"] or float(m["p"]) != 1.0:
        raise Failure("every queue path must reach the goal: %s" % report_line(out))
    # the Chow-Robbins half-width targets eps at 95 %; 4 eps is ~8 sigma
    if abs(float(m["mean"]) - mean_ref) > 4 * eps:
        raise Failure("E[w] = %s is more than %g from %g" % (m["mean"], 4 * eps, mean_ref))
    return {"paths": int(m["paths"]), "successes": int(m["sat"]), "mean": m["mean"]}


def check_exact(out, p_ref):
    p = float(parse(EXACT, out)["p"])
    if abs(p - p_ref) > 1e-6:
        raise Failure("exact p = %.9f, expected %.9f within 1e-6" % (p, p_ref))
    return {"abs_err": abs(p - p_ref)}


# --- workloads ---------------------------------------------------------------

GPS_PROP = "P(<> [0,300] gps in mode active and not gps.measurement)"
LAUNCHER_PROP = "P(<> [0,100] mission in mode flight and not thrusters.ctl)"
QUEUE_QUERY = "E[w ; <> [0,100] served = 5]"
SWEEP = [2.5e5, 5e5, 1e6, 1.5e6]


class Workload:
    """commands(seed, smoke, models) -> list of argv tails for one invocation;
    check(outputs, smoke, models) -> dict of checked facts (raises Failure).
    A workload with a reference is checked once per run against the
    reference workload's output at the same seed."""

    def __init__(self, name, commands, check, reference=None, workers=1):
        self.name, self.commands, self.check = name, commands, check
        self.reference, self.workers = reference, workers


def gps_cmd(extra):
    def commands(seed, smoke, models):
        files = ["--checkpoint", os.path.join(WORK, "gps.ckpt"),
                 "--checkpoint-every", "10000",
                 "--metrics", os.path.join(WORK, "gps.prom"),
                 "--log-json", os.path.join(WORK, "gps.jsonl")]
        return [["simulate", os.path.join(MODELS, "gps.slim"), "-p", GPS_PROP,
                 "-s", "progressive", "-d", "0.05", "-e", "0.07" if smoke else "0.01",
                 "--seed", str(seed)] + files + extra]
    return commands


def gps_check(outs, smoke, models):
    return check_estimate(outs[0], 0.9866, 0.07 if smoke else 0.01)


def launcher_cmd(seed, smoke, models):
    return [["simulate", os.path.join(MODELS, "launcher_recoverable.slim"),
             "-p", LAUNCHER_PROP, "-s", "progressive", "-d", "0.05",
             "-e", "0.5" if smoke else "0.2", "--seed", str(seed)]]


def queue_cmd(seed, smoke, models):
    return [["simulate", os.path.join(MODELS, "mm1k_priced.slim"), "--query", QUEUE_QUERY,
             "-g", "chow-robbins", "-d", "0.05", "-e", "0.3" if smoke else "0.03",
             "--seed", str(seed)]]


def sf_n(smoke):
    return "4" if smoke else "8"


def sf_cmd(seed, smoke, models):
    sf = models["sensor_filter"][sf_n(smoke)]
    return [["exact", sf["file"], "-p", "P(<> [0, 1800] %s)" % sf["goal"]]]


def sf_check(outs, smoke, models):
    return check_exact(outs[0], models["sensor_filter"][sf_n(smoke)]["closed_form_1800"])


def sweep_cmd(seed, smoke, models):
    q = models["queue"]
    return [["exact", q["file"], "-p", "P(<> [0, %g] %s)" % (u / (5 if smoke else 1), q["goal"])]
            for u in SWEEP]


def sweep_check(outs, smoke, models):
    return {"abs_err": max(check_exact(o, 1.0)["abs_err"] for o in outs)}


WORKLOADS = [
    Workload("launcher-long-paths", launcher_cmd,
             lambda outs, smoke, models: check_estimate(outs[0], 0.08, 0.5 if smoke else 0.2)),
    Workload("gps-short-paths", gps_cmd(["-j", "1"]), gps_check),
    Workload("gps-domains-2", gps_cmd(["-j", "2"]), gps_check,
             reference="gps-short-paths", workers=2),
    Workload("gps-distribute-2", gps_cmd(["--distribute", "2"]), gps_check,
             reference="gps-short-paths", workers=2),
    Workload("queue-expected-cost", queue_cmd,
             lambda outs, smoke, models: check_cost(outs[0], 10.175, 0.3 if smoke else 0.03)),
    Workload("exact-sf8", sf_cmd, sf_check),
    Workload("exact-queue-horizon-sweep", sweep_cmd, sweep_check),
]
BY_NAME = {w.name: w for w in WORKLOADS}


# --- one run -----------------------------------------------------------------

# One checked invocation: wall and CPU seconds, peak RSS in MB, the stdout
# of each command, the facts its check returned, and its index k.
Sample = collections.namedtuple("Sample", "wall cpu rss outs facts k")


class Run:
    """The state of one measured run: the seed schedule, the models, the
    failure tally, the host-speed probes and the deadline every spawned
    process respects."""

    def __init__(self, workload, seed, smoke):
        self.w, self.seed, self.smoke = workload, seed, smoke
        self.deadline = Deadline(DEADLINE_S)
        self.env = child_env()
        self.attempted = self.failed = 0
        self.errors = []
        self.probes = []
        self.reference_outs = None
        self.models = json.loads(spawn([TRACE, "models", WORK], self.deadline, self.env)[3])
        with open(os.path.join(BENCH_DIR, "pins.json")) as f:
            self.pins = json.load(f)

    def fail(self, what, e):
        self.failed += 1
        self.errors.append("%s: %s" % (what, e))

    def invocation_seed(self, k):
        # invocation 0 runs at the run's own seed, so pins apply at --seed 1
        return self.seed + 1000 * k

    def invoke(self, program, k, workload=None, smoke=None):
        """Run every command of one invocation and check the outputs;
        returns a Sample, or None after counting a failure."""
        w = workload or self.w
        smoke = self.smoke if smoke is None else smoke
        self.attempted += 1
        wall = cpu = rss = 0.0
        outs = []
        try:
            for tail in w.commands(self.invocation_seed(k), smoke, self.models):
                for f in ("gps.ckpt", "gps.jsonl"):
                    if os.path.exists(os.path.join(WORK, f)):
                        os.remove(os.path.join(WORK, f))
                t, c, r, out = spawn(program + tail, self.deadline, self.env)
                wall, cpu, rss = wall + t, cpu + c, max(rss, r)
                outs.append(out)
            facts = w.check(outs, smoke, self.models)
            if k == 0 and workload is None and smoke == self.smoke:
                self.check_first(outs, facts)
        except Failure as e:
            self.fail(w.name, e)
            return None
        return Sample(wall, cpu, rss, outs, facts, k)

    def check_first(self, outs, facts):
        """Invocation 0 runs at the run's seed: at seed 1 it must match the
        pins, and at any seed the reference workload's output (computed
        once per run)."""
        pin = self.pins.get(self.w.name)
        if pin and self.seed == 1 and not self.smoke and \
                {k: facts[k] for k in pin} != pin:
            raise Failure("seed-1 pin %s, got %s" % (pin, facts))
        if self.w.reference:
            if self.reference_outs is None:
                ref = self.invoke(CLI_PROGRAM, 0, BY_NAME[self.w.reference])
                self.reference_outs = [strip_wall(report_line(o)) for o in ref.outs] \
                    if ref else []
            if self.reference_outs and \
                    self.reference_outs != [strip_wall(report_line(o)) for o in outs]:
                raise Failure("output differs from %s at seed %d"
                              % (self.w.reference, self.seed))

    def warm_up(self):
        """One discarded invocation of the shrunk workload: it loads the
        binaries and models into the page cache at little cost."""
        self.invoke(CLI_PROGRAM, 0, smoke=True)

    def probe(self):
        self.probes.append(float(spawn([PROBE], self.deadline, self.env)[3].split()[0]))

    def closed_loop(self, lanes, seconds):
        """One client, back to back: round k invokes every lane (a program
        and a workload, None for the run's own) at invocation seed k, in an
        order rotated by k so no lane always runs first, then runs the
        host-speed probe.  Stops once another round would overrun
        `seconds`, after at least one.  Returns each lane's samples.
        Extra probes before the first and after the last round give a run
        of one long round several probe samples."""
        samples = [[] for _ in lanes]
        for _ in range(3):
            self.probe()
        k, start = 0, time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for i in range(len(lanes)):
                i = (i + k) % len(lanes)
                got = self.invoke(lanes[i][0], k, lanes[i][1])
                if got:
                    samples[i].append(got)
            self.probe()
            k += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds or self.deadline.left() < 30:
                self.probe()
                self.probe()
                return samples

    def process_start(self, reps):
        return median([spawn(CLI_PROGRAM + ["version"], self.deadline, self.env)[0]
                       for _ in range(reps)])

    def setup(self, reps):
        """In-process set-up of one fresh trace child per repetition."""
        tail = self.w.commands(self.seed, self.smoke, self.models)[0]
        times = []
        for _ in range(reps):
            out = spawn(TRACE_PROGRAM + ["--setup-only"] + tail, self.deadline, self.env)[3]
            times.append(json.loads(out.splitlines()[-1])["setup_s"])
        return median(times)


def e2e_run(w, seed, seconds, smoke):
    """The end-to-end metrics.  Times are scaled by the square root of how
    much faster than the reference the probes ran (README.md, "Host
    noise"); the raw values are kept for the human-readable lines."""
    run = Run(w, seed, smoke)
    run.warm_up()
    reps = 3 if smoke else SETUP_REPS
    raw = {}
    try:
        raw["setup_s"] = run.process_start(reps) + run.setup(reps)
    except Failure as e:
        run.fail("set-up", e)
    samples, = run.closed_loop([(CLI_PROGRAM, None)], seconds)
    raw["wall_s"] = [s.wall for s in samples]
    raw["cpu_s"] = [s.cpu for s in samples]
    speed = PROBE_REFERENCE_S / median(run.probes)
    scale = math.sqrt(speed)
    values = {name: [x * scale for x in v] if isinstance(v, list) else v * scale
              for name, v in raw.items() if v}
    values["peak_rss_mb"] = [s.rss for s in samples]
    return run, values, {"host_speed": speed, "raw": raw}


def prom_sum(text, family, **labels):
    total = 0.0
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, lab = head.partition("{")
        if name == family and all(
                dict(re.findall(r'(\w+)="([^"]*)"', lab)).get(k) == v
                for k, v in labels.items()):
            total += float(value)
    return total


ROLES = {
    "io.read": "io.read_s", "slim.parse": "slim.parse_s", "slim.sema": "slim.sema_s",
    "slim.translate": "slim.translate_s", "props.resolve": "props.resolve_s",
    "analyze.lint": "engine.prepare_s", "analyze.prepass": "engine.prepare_s",
    "sta.stage": "engine.prepare_s", "ctmc.explore": "engine.prepare_s",
    "ctmc.lump": "engine.prepare_s", "sim.sampling": "engine.run_s",
    "dist.run": "engine.run_s", "ctmc.transient": "engine.run_s", "report": "report_s",
}


def traced(timing, counting):
    """The per-layer values and module-level spans of one invocation,
    from a trace child that mirrors the CLI (the spans) and one with
    metric collection forced on (the counts), both at the same seed.
    The exact pipeline records no metrics, so there one child serves."""
    layers = {name: 0.0 for name in set(ROLES.values())}
    modules, counts = {}, {}
    minor_words = 0.0
    for out in timing.outs:
        doc = json.loads(out.splitlines()[-1])
        minor_words += doc.get("minor_words", 0.0)
        for name, secs in doc["spans"]:
            layers[ROLES[name]] += secs
            modules[name] = modules.get(name, 0.0) + secs
    for out in counting.outs:
        doc = json.loads(out.splitlines()[-1])
        prom = doc["metrics"]
        for key, value in (
                ("sim.steps", prom_sum(prom, "slimsim_path_steps_sum")),
                ("sim.firings_delay", prom_sum(prom, "slimsim_firings_total", kind="delay")),
                ("sim.firings_markov", prom_sum(prom, "slimsim_firings_total", kind="markov")),
                ("supervisor.checkpoints", prom_sum(prom, "slimsim_checkpoints_total")),
                ("occupancy_sum", prom_sum(prom, "slimsim_buffer_occupancy_sum")),
                ("occupancy_n", prom_sum(prom, "slimsim_buffer_occupancy_count")),
                ("dist.leases_granted", doc.get("dist_leases_granted", 0)),
                ("dist.leases_reassigned", doc.get("dist_leases_reassigned", 0)),
                ("dist.duplicate_paths", doc.get("dist_duplicate_paths", 0)),
                ("cost.sat_paths", doc.get("cost_sat_paths", 0)),
                ("ctmc.stable_states", doc.get("ctmc_stable_states", 0)),
                ("ctmc.transitions", doc.get("ctmc_transitions", 0)),
                ("ctmc.vanishing_visits", doc.get("ctmc_vanishing_visits", 0)),
                ("ctmc.lumped_states", doc.get("ctmc_lumped_states", 0))):
            counts[key] = counts.get(key, 0.0) + value
        for key in ("ctmc_heap_peak_mb", "ctmc_uniformisation_lambda"):
            name = key.replace("_", ".", 1)
            counts[name] = max(counts.get(name, 0.0), doc.get(key, 0.0))
    steps, run_s = counts["sim.steps"], layers["engine.run_s"]
    paths = timing.facts.get("paths", 0)
    occupancy_sum, occupancy_n = counts.pop("occupancy_sum"), counts.pop("occupancy_n")
    v = dict(layers)
    v.update(counts)
    v.update({
        "sim.paths": paths,
        "sim.steps_per_s": steps / run_s if steps else 0.0,
        "sim.paths_per_s": paths / run_s if paths else 0.0,
        "sim.minor_words_per_step": minor_words / steps if steps else 0.0,
        "campaign.buffer_occupancy_mean": occupancy_sum / occupancy_n if occupancy_n else 0.0,
        "ctmc.max_abs_err": timing.facts.get("abs_err", 0.0),
        "traced_wall_s": timing.wall,
    })
    return v, modules


def trace_run(w, seed, seconds, smoke):
    """Per-layer values from trace children, interleaved with CLI
    invocations of the same seeds (and, for a parallel workload, with its
    sequential reference, the speed-up base) so that all of them see the
    same host conditions.  Times here are raw seconds."""
    run = Run(w, seed, smoke)
    run.warm_up()
    try:
        start_s = run.process_start(3 if smoke else SETUP_REPS)
    except Failure as e:
        run.fail("process start", e)
        return run, {}, {}
    simulate = w.commands(seed, smoke, run.models)[0][0] == "simulate"
    lanes = [(CLI_PROGRAM, None), (TRACE_PROGRAM, None)]
    if simulate:
        lanes.append((TRACE_PROGRAM + ["--count"], None))
    if w.reference:
        lanes.append((CLI_PROGRAM, BY_NAME[w.reference]))
    cli, traces, *rest = run.closed_loop(lanes, seconds)
    counts_k = {s.k: s for s in (rest.pop(0) if simulate else traces)}
    cli_k = {s.k: s.wall for s in cli}
    base_k = {s.k: s.wall for s in rest[0]} if rest else {}
    reps = [traced(s, counts_k[s.k]) + (cli_k[s.k],) for s in traces
            if s.k in counts_k and s.k in cli_k]
    if not reps:
        return run, {}, {}
    # unattributed time and trace overhead pair each trace child with the
    # CLI invocation of its own round, so slow spells of the host cancel
    for layers, _, cli_wall in reps:
        attributed = start_s + sum(layers[n] for n in set(ROLES.values()))
        layers["unattributed_s"] = cli_wall - attributed
        layers["unattributed_pct"] = 100.0 * (cli_wall - attributed) / cli_wall
        layers["trace_overhead_pct"] = 100.0 * (layers.pop("traced_wall_s") - cli_wall) / cli_wall
    values = {name: median([r[0][name] for r in reps]) for name in reps[0][0]}
    cli_wall = median(cli_k.values())
    speedups = [base_k[k] / cli_k[k] for k in base_k if k in cli_k]
    speedup = median(speedups) if speedups else 0.0
    values.update({
        "process.start_s": start_s,
        "parallel.speedup": speedup,
        "parallel.efficiency": 100.0 * speedup / w.workers if speedup else 0.0,
    })
    detail = {name: median([r[1].get(name, 0.0) for r in reps]) for name in ROLES}
    return run, values, {"cli_wall_s": cli_wall, "modules_s": detail}


# --- output ------------------------------------------------------------------

def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def result(run, values, section, spec):
    """The run's result object: every metric of the section, in the unit
    BENCHMARK.json declares."""
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            run.errors.append("metric %s was not measured" % m["name"])
            continue
        v = values[m["name"]]
        metrics[m["name"]] = {"value": median(v) if isinstance(v, list) else v,
                              "unit": m["unit"]}
    return {"correct": run.failed == 0 and not run.errors,
            "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}


def describe(w, values, section, spec, extra):
    """Human-readable lines: every metric by name with its unit, then the
    raw (unscaled) times or the module-level spans."""
    print("workload %s" % w.name)

    def line(name, v, unit):
        if isinstance(v, list):
            print("  %-34s median %.6g %s  (min %.6g, max %.6g, n=%d)"
                  % (name, median(v), unit, min(v), max(v), len(v)))
        elif v is not None:
            print("  %-34s %.6g %s" % (name, v, unit))

    for m in spec[section]:
        line(m["name"], values.get(m["name"]), m["unit"])
    if "host_speed" in extra:
        line("host speed (reference = 1)", extra["host_speed"], "x")
        for name, v in extra["raw"].items():
            line("raw " + name, v, "s")
    for name, secs in sorted(extra.get("modules_s", {}).items()):
        if secs:
            line("module " + name, secs, "s")


def measure(w, seed, seconds, trace, smoke, spec):
    run, values, extra = (trace_run if trace else e2e_run)(w, seed, seconds, smoke)
    section = "per_layer" if trace else "end_to_end"
    describe(w, values, section, spec, extra)
    for e in run.errors:
        print("  FAILED %s" % e, file=sys.stderr)
    return result(run, values, section, spec), extra


# --- build and entry points --------------------------------------------------

def require_checkout():
    missing = [p for p in ("dune-project", os.path.join("bin", "slimsim_cli.ml"), MODELS)
               if not os.path.exists(p)]
    if missing:
        sys.exit("bench_e2e: run from the root of a slimsim checkout (missing %s)"
                 % ", ".join(missing))


def build():
    os.makedirs(WORK, exist_ok=True)
    targets = ["./" + CLI_TARGET] + ["./%s/%s.exe" % (BENCH_DIR, exe)
                                     for exe in ("trace", "rusage", "probe")]
    p = subprocess.run(["dune", "build", "--root", "."] + targets,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env())
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        sys.exit("bench_e2e: dune build failed")


def host():
    def cmd(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    git = cmd(["git", "rev-parse", "--short", "HEAD"]) if os.path.isdir(".git") else ""
    return {"cores": os.cpu_count(), "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"]),
            "git": git or "unknown", "python": sys.version.split()[0]}


def run_all(seed, reps, seconds, out_path, spec):
    doc = {"host": host(), "seed": seed, "reps": reps, "seconds": seconds,
           "runs": {w.name: [] for w in WORKLOADS},
           "trace": {w.name: [] for w in WORKLOADS}}
    for r in range(reps):
        for w in WORKLOADS:
            for trace in (0, 1):
                res, extra = measure(w, seed + r, seconds, trace, False, spec)
                if extra:
                    res["detail"] = extra
                doc["trace" if trace else "runs"][w.name].append(res)
                print(json.dumps(res))
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)
    return all(r["correct"] for kind in ("runs", "trace") for rs in doc[kind].values()
               for r in rs)


def smoke(spec):
    """Every workload shrunk, both trace modes: every metric of
    BENCHMARK.json is emitted and every check passes."""
    ok = True
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res, _ = measure(w, 1, 0.0, trace, True, spec)
            names = {m["name"] for m in spec[section]}
            if not res["correct"] or set(res["metrics"]) != names:
                print("smoke: %s --trace %d failed: %s" % (w.name, trace, res),
                      file=sys.stderr)
                ok = False
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return ok


def compare(old_path, new_path, spec):
    """Per (workload, end-to-end metric): medians, quartiles, delta, bound
    and verdict.  Exit status 1 on any 'worse' or a higher failure rate."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    bad = False

    def series(doc, kind, w, name):
        return [r["metrics"][name]["value"] for r in doc[kind].get(w, [])
                if name in r["metrics"]]

    def fail_rate(doc, w):
        rs = doc["runs"].get(w, []) + doc["trace"].get(w, [])
        return sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))

    for w in BY_NAME:
        print("workload %s" % w)
        for m in spec["end_to_end"]:
            a, b = series(old, "runs", w, m["name"]), series(new, "runs", w, m["name"])
            if not a or not b:
                print("  %-12s missing" % m["name"])
                continue
            v, delta = verdict(a, b, m["bound"], m["better"])
            bad |= v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print("  %-12s old %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g] %s  "
                  "%+.1f%% (bound %.0f%%)  %s"
                  % (m["name"], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], m["unit"],
                     100 * delta, 100 * m["bound"], v))
        fa, fb = fail_rate(old, w), fail_rate(new, w)
        print("  %-12s old %.4g  new %.4g%s" % ("failure_rate", fa, fb,
                                               "  worse" if fb > fa else ""))
        bad |= fb > fa
        for m in spec["per_layer"]:
            a, b = series(old, "trace", w, m["name"]), series(new, "trace", w, m["name"])
            if a and b and (median(a) or median(b)):
                print("    (layer) %-32s %.4g -> %.4g %s"
                      % (m["name"], median(a), median(b), m["unit"]))
    return not bad


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare OLD.json NEW.json")
        return 0 if compare(argv[1], argv[2], load_benchmark()) else 1
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all"] + list(BY_NAME))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(WORK, "results.json"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    require_checkout()
    spec = load_benchmark()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    build()
    if args.smoke:
        return 0 if smoke(spec) else 1
    if args.workload == "all":
        return 0 if run_all(args.seed, args.reps, seconds, args.out, spec) else 1
    res, _ = measure(BY_NAME[args.workload], args.seed, seconds, args.trace, False, spec)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
