#!/usr/bin/env python3
"""The repository benchmark: the built `psched` binary on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds `psched` and the benchmark's own
tool (`perfbench/tool`, OCaml) into `.bench_build/`, generates the
workload's instance from the seed, computes the reference decisions, and
then:

* with `--trace 0`, runs `psched` on the instance as a child process, one
  process after another (a closed loop), for S seconds, checks every
  output against the reference, and reports the end-to-end metrics;
* with `--trace 1`, runs the same CLI loop for the CLI wall time, then
  replays the workload in-process through the libraries (`pbench trace`,
  twice, to check that its deterministic counts repeat) and reports the
  per-layer metrics and an attribution table.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md for why
each workload exists and what each metric should move.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"
PSCHED = os.path.join(BUILD_DIR, "default", "bin", "psched.exe")
PBENCH = os.path.join(BUILD_DIR, "default", "perfbench", "tool", "pbench.exe")
CALIB = os.path.join(BUILD_DIR, "default", "perfbench", "tool", "calib.exe")
SOURCES = ("dune-project", "bin/psched.ml", "lib", "perfbench/tool/pbench.ml")

CHILD_TIMEOUT_S = 60.0
# --restore runs timed to their first record: at least RESTORES, more
# while they add up to under RESTORE_CPU_S, at most RESTORES_MAX
RESTORES, RESTORE_CPU_S, RESTORES_MAX = 8, 3.0, 64
SETUP_PROBES = 60  # runs on the first arrival alone
# Reported CPU times are scaled to a host on which calib takes this long
# (see Tally.ref).
CALIB_REFERENCE_S = 0.1
MB = 1e6


@dataclasses.dataclass(frozen=True)
class Workload:
    family: str  # pbench gen --family
    n: int  # arrivals in the instance
    mode: str  # "serve" or "stream"
    shards: int
    failover: bool  # checkpoint, kill and restore on the main path
    parts: int = 1  # independent instances per loop iteration

    @property
    def every(self):
        return self.n // 5

    @property
    def kill(self):
        return self.n * 9 // 10

    @property
    def cut(self):
        """The seq of the last checkpoint the killed run commits."""
        return self.kill // self.every * self.every


# m = 4, alpha = 3 everywhere.  Sizes keep one psched process near half a
# second to a second on a 2-core host, so a 15 s window holds 10-25 of them.
WORKLOADS = {
    # front end, Service routing/merge and JSON emit dominate
    "dc-serve": Workload("datacenter", 40000, "serve", 2, False),
    # long windows: the core and Chen's water-filling dominate
    "longwin-serve": Workload("longwin", 20000, "serve", 1, False),
    # Online.current_plan rebuilds the schedule on every arrival.  Its
    # cost swings with each instance's plan size (±15 % between seeds at
    # n = 2000), so an iteration streams 10 independent instances.
    "plan-stream": Workload("datacenter", 1200, "stream", 1, False,
                            parts=10),
    # checkpoint every n/5 arrivals, kill at 0.9 n, restore, finish
    "dc-failover": Workload("datacenter", 40000, "serve", 2, True),
}

END_TO_END = {
    "arrivals_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recover_s": "s",
    "checkpoint_mb": "MB",
}

# Metrics pbench trace prints that repeat exactly for a given seed.
DETERMINISTIC = (
    "chen.probes_per_arrival",
    "chen.intervals_per_arrival",
    "chen.breakpoints_per_arrival",
    "core.max_live_intervals",
    "core.max_table_entries",
    "core.finished_slices",
    "core.accept_ratio",
    "obs.json_bytes_per_record",
    "service.checkpoint_bytes",
    "engine.snapshot_bytes",
    "engine.words_per_arrival",
    "engine.live_words_end",
    "engine.current_plan_words",
    "core.words_per_arrival",
)

LAYER_METRICS = {
    "model.parse_us_per_arrival": "us",
    "model.energy_s": "s",
    "obs.json_us_per_record": "us",
    "obs.json_bytes_per_record": "bytes",
    "service.submit_p50_us": "us",
    "service.submit_p99_us": "us",
    "service.submit_busy_s": "s",
    "service.empty_submit_ratio": "ratio",
    "service.max_backlog": "count",
    "service.drain_s": "s",
    "service.finalize_s": "s",
    "service.checkpoint_p50_s": "s",
    "service.checkpoint_max_s": "s",
    "service.checkpoint_bytes": "bytes",
    "service.restore_s": "s",
    "engine.arrive_p50_us": "us",
    "engine.arrive_p99_us": "us",
    "engine.busy_s": "s",
    "engine.words_per_arrival": "words",
    "engine.wrapper_us_per_arrival": "us",
    "engine.live_words_end": "words",
    "engine.current_plan_p50_us": "us",
    "engine.current_plan_busy_s": "s",
    "engine.current_plan_words": "words",
    "engine.snapshot_s": "s",
    "engine.snapshot_bytes": "bytes",
    "engine.restore_s": "s",
    "core.arrive_p50_us": "us",
    "core.arrive_p99_us": "us",
    "core.busy_s": "s",
    "core.words_per_arrival": "words",
    "core.accept_ratio": "ratio",
    "core.max_live_intervals": "count",
    "core.max_table_entries": "count",
    "core.finished_slices": "count",
    "core.schedule_s": "s",
    "chen.probes_per_arrival": "count",
    "chen.intervals_per_arrival": "count",
    "chen.breakpoints_per_arrival": "count",
    "gc.top_heap_mb": "MB",
    "gc.major_collections": "count",
    "trace.overhead_ratio": "ratio",
}
ATTRIBUTED = ("psched", "model", "obs", "service", "engine", "core")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- build


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        die(f"run from the repository root; missing {', '.join(missing)}")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    # --cache=disabled: nothing is read from or written to dune's shared
    # cache outside the checkout
    argv = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
            "--cache=disabled", "--profile", "release", "./bin/psched.exe",
            "./perfbench/tool/pbench.exe", "./perfbench/tool/calib.exe"]
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=840)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        die("build failed", 1)


def pbench(*args):
    r = subprocess.run([PBENCH, *args], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die(f"pbench {args[0]} failed", 1)
    return r.stdout.decode()


# ---------------------------------------------------------------- children


@dataclasses.dataclass
class Child:
    wall: float  # spawn -> exit
    cpu: float  # user + system seconds, from the child's own rusage
    rss_mb: float  # peak RSS, from the child's own rusage
    out: bytes
    code: int


def _run_child(argv, work, until_first):
    """Run one process to completion (or, with `until_first`, kill it at
    its first output), timing it from spawn; its stdout goes to
    work/psched.out.  Runs inside the spawner process."""
    r, w = os.pipe()
    with open(os.path.join(work, "psched.err"), "ab") as err, \
            open(os.path.join(work, "psched.out"), "wb") as out:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, w, 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        os.close(w)
        try:
            deadline = t0 + CHILD_TIMEOUT_S
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([r], [], [], left)[0]:
                    os.kill(pid, signal.SIGKILL)
                    break
                b = os.read(r, 1 << 20)
                if not b:
                    break
                out.write(b)
                if until_first:
                    os.kill(pid, signal.SIGKILL)
                    break
        finally:
            os.close(r)
            _, status, ru = os.wait4(pid, 0)
    return {"wall": time.perf_counter() - t0,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss * 1024 / MB,
            "code": os.waitstatus_to_exitcode(status)}


SPAWNER = None  # the Spawner; main() starts it before anything else


class Spawner:
    """Starts every psched process from a helper forked at start-up.

    On Linux a child's ru_maxrss also counts the peak RSS of the address
    space it was exec'd from: the kernel keeps the larger of the two
    across exec.  run.py's own memory grows with the outputs it parses,
    so children are spawned from this helper, whose memory stays at its
    start-up size (~10 MB, below any psched run measured), and the RSS
    read from wait4 is the child's own peak."""

    def __init__(self):
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(res_r)
            with os.fdopen(req_r) as req, os.fdopen(res_w, "w") as res:
                for line in req:
                    res.write(json.dumps(_run_child(*json.loads(line))) + "\n")
                    res.flush()
            os._exit(0)
        os.close(req_r)
        os.close(res_w)
        self.req = os.fdopen(req_w, "w")
        self.res = os.fdopen(res_r)

    def spawn(self, argv, work, until_first=False):
        self.req.write(json.dumps([argv, work, until_first]) + "\n")
        self.req.flush()
        line = self.res.readline()
        if not line:
            die("the spawner died", 1)
        with open(os.path.join(work, "psched.out"), "rb") as f:
            return Child(out=f.read(), **json.loads(line))

    def close(self):
        self.req.close()
        os.waitpid(self.pid, 0)
        self.res.close()


def main_argv(w, inst):
    if w.mode == "stream":
        return [PSCHED, "stream", inst, "--algorithm", "pd"]
    return [PSCHED, "serve", inst, "--shards", str(w.shards), "--workers", "1"]


def killed_argv(w, inst, ckpt):
    return [PSCHED, "serve", inst, "--shards", str(w.shards), "--workers", "1",
            "--snapshot-dir", ckpt, "--snapshot-every", str(w.every),
            "--kill-after", str(w.kill)]


def restore_argv(inst, ckpt):
    return [PSCHED, "serve", inst, "--restore", ckpt, "--workers", "1"]


def committed_checkpoint(ckpt):
    """(seq, bytes) of the committed checkpoint: manifest + shard files."""
    manifest = os.path.join(ckpt, "manifest")
    seq, size = None, os.path.getsize(manifest)
    with open(manifest) as f:
        for line in f:
            parts = line.split()
            if parts[:1] == ["seq"]:
                seq = int(parts[1])
            elif parts[:1] == ["shard"] and len(parts) >= 3:
                size += os.path.getsize(os.path.join(ckpt, parts[2]))
    if seq is None:
        raise ValueError("manifest without a seq line")
    return seq, size


# ---------------------------------------------------------------- checking


@dataclasses.dataclass
class Reference:
    shard: list
    accepted: list
    lam: list
    energy: list  # per shard, final plans


def load_reference(path):
    shard, accepted, lam, energy = [], [], [], []
    with open(path) as f:
        for line in f:
            p = line.split()
            if p[0] == "d":
                shard.append(int(p[2]))
                accepted.append(p[3] == "1")
                lam.append(float(p[4]))
            elif p[0] == "e":
                energy.append(float(p[2]))
    return Reference(shard, accepted, lam, energy)


def close(a, b):
    return isinstance(a, (int, float)) and not isinstance(a, bool) and (
        a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b)))


def records(out):
    """psched prints one pretty-printed JSON object per record.  Output
    that does not parse yields no records, so every arrival it should
    have decided counts as failed."""
    try:
        return json.loads("[" + out.decode().replace("}\n{", "},{") + "]")
    except ValueError:
        return []


def failed_arrivals(ref, decisions, lo, hi, sharded):
    """Arrivals in [lo, hi) whose decision is missing, duplicated or
    disagrees with the reference: job, shard and accept bit exact, lambda
    within 1e-9 relative.  Also says whether no record fell outside."""
    count, bad, stray = {}, set(), 0
    for o in decisions:
        s = o.get("seq")
        if not isinstance(s, int) or not lo <= s < hi:
            stray += 1
            continue
        count[s] = count.get(s, 0) + 1
        if (o.get("job") != s or o.get("accepted") is not ref.accepted[s]
                or not close(o.get("lambda"), ref.lam[s])
                or (sharded and o.get("shard") != ref.shard[s])):
            bad.add(s)
    failed = sum(1 for s in range(lo, hi) if s in bad or count.get(s) != 1)
    return failed, stray == 0


def summary_ok(ref, summaries, stream, jobs):
    """The closing summary record(s) of a run over the first `jobs`
    arrivals.  On the whole instance the accepted count (stream) and the
    energy of the final plans (per shard and in total when sharded) are
    checked too; the reference has no energies for a prefix."""
    whole = jobs == len(ref.accepted)
    if stream:
        s = summaries[0] if len(summaries) == 1 else {}
        return (s.get("summary") == "pd" and s.get("jobs") == jobs
                and (not whole or (s.get("accepted") == sum(ref.accepted)
                                   and close(s.get("energy"),
                                             ref.energy[0]))))
    shards = len(ref.energy)
    rows = [s for s in summaries if "summary" not in s]
    total = [s for s in summaries if s.get("summary") == "pd-sharded"]
    if (len(rows) != shards or len(total) != 1
            or total[0].get("jobs") != jobs):
        return False
    return not whole or (
        close(total[0].get("energy"), sum(ref.energy))
        and all(close(r.get("energy"), ref.energy[r.get("shard", -1)])
                for r in rows if 0 <= r.get("shard", -1) < shards))


class Checker:
    """Checks outputs against the reference.  psched is deterministic, so
    a byte-identical output gets the verdict of the first one checked."""

    def __init__(self, refs):
        self.refs = refs  # one per instance of the workload
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.ok = True

    def _judge(self, key, lo, hi, parse, part=0):
        """parse() -> (decision records, summary records or None when the
        run was cut short on purpose, stream path?)"""
        key = (key, part)
        if key not in self.verdicts:
            ref = self.refs[part]
            decisions, summaries, stream = parse()
            failed, no_stray = failed_arrivals(ref, decisions, lo, hi,
                                               sharded=not stream)
            self.verdicts[key] = (failed, no_stray and (
                summaries is None
                or summary_ok(ref, summaries, stream, hi)))
        failed, ok = self.verdicts[key]
        self.attempted += hi - lo
        self.failed += failed
        self.ok = self.ok and ok and failed == 0

    def crashed(self, arrivals):
        self.attempted += arrivals
        self.failed += arrivals
        self.ok = False

    def whole(self, child, stream, jobs, part=0):
        """A run over the first `jobs` arrivals of instance `part`, to its
        end."""
        if child.code != 0:
            return self.crashed(jobs)

        def parse():
            objs = records(child.out)
            return ([o for o in objs if "seq" in o],
                    [o for o in objs if "seq" not in o], stream)
        self._judge((hashlib.sha256(child.out).digest(), jobs), 0, jobs,
                    parse, part)

    def failover(self, killed, restored, cut):
        """The killed run's records before the checkpoint, stitched onto
        the restored run's output, must be the whole decision stream."""
        n = len(self.refs[0].accepted)
        if killed.code != 0 or restored.code != 0:
            return self.crashed(n)

        def parse():
            before = [o for o in records(killed.out)
                      if isinstance(o.get("seq"), int) and o["seq"] < cut]
            objs = records(restored.out)
            return (before + [o for o in objs if "seq" in o],
                    [o for o in objs if "seq" not in o], False)
        key = (hashlib.sha256(killed.out).digest(),
               hashlib.sha256(restored.out).digest(), cut)
        self._judge(key, 0, n, parse)

    def first_after_restore(self, child, cut):
        """A --restore run killed at its first record: that record must be
        the decision for arrival `cut`."""
        if child.code not in (0, -signal.SIGKILL):
            return self.crashed(1)
        first = child.out.split(b"\n}", 1)[0] + b"\n}"
        self._judge((first, cut), cut, cut + 1,
                    lambda: (records(first), None, False))


# ---------------------------------------------------------------- runs


@dataclasses.dataclass
class Tally:
    cpu: list = dataclasses.field(default_factory=list)  # per iteration
    walls: list = dataclasses.field(default_factory=list)  # per iteration
    setup: list = dataclasses.field(default_factory=list)
    recover: list = dataclasses.field(default_factory=list)
    rss: list = dataclasses.field(default_factory=list)
    ckpt: list = dataclasses.field(default_factory=list)
    calib: list = dataclasses.field(default_factory=list)

    def calibrate(self, work):
        self.calib.append(SPAWNER.spawn([CALIB], work).cpu)

    def ref(self, cpu_s):
        """CPU seconds scaled to the reference host: by CALIB_REFERENCE_S
        over the median of the three latest calib runs.  The host's speed
        drifts (calib's CPU time moved 1.8x within an hour on the 2-vCPU
        VM this was built on); calib runs between the measured processes,
        uses no repository code, and cancels the drift."""
        return cpu_s * CALIB_REFERENCE_S / statistics.median(self.calib[-3:])


def checkpointed_run(w, inst, work, checker, tally):
    """The checkpointing serve run killed at 0.9 n, then a --restore run
    from its last committed checkpoint over the rest of the input."""
    ckpt = os.path.join(work, "ckpt")
    shutil.rmtree(ckpt, ignore_errors=True)
    killed = SPAWNER.spawn(killed_argv(w, inst, ckpt), work)
    tally.rss.append(killed.rss_mb)
    try:
        cut, size = committed_checkpoint(ckpt)
    except (OSError, ValueError) as e:
        print(f"perfbench: no committed checkpoint: {e}", file=sys.stderr)
        checker.crashed(w.n)
        return None
    if cut != w.cut:
        print(f"perfbench: checkpoint at {cut}, expected {w.cut}",
              file=sys.stderr)
        checker.crashed(w.n)
        return None
    tally.ckpt.append(size)
    restored = SPAWNER.spawn(restore_argv(inst, ckpt), work)
    tally.rss.append(restored.rss_mb)
    checker.failover(killed, restored, cut)
    return killed, restored


def closed_loop(w, insts, work, checker, tally, seconds, calibrate=False):
    """Iterations of one psched process per instance (or one kill/restore
    pair) until the window closes; the loop is closed, each process waits
    for the previous."""
    end = time.perf_counter() + seconds
    while True:
        if calibrate:
            tally.calibrate(work)
        if w.failover:
            procs = checkpointed_run(w, insts[0], work, checker, tally)
            if procs is None:
                return
        else:
            procs = [SPAWNER.spawn(main_argv(w, inst), work) for inst in insts]
            for k, c in enumerate(procs):
                checker.whole(c, stream=w.mode == "stream", jobs=w.n, part=k)
                tally.rss.append(c.rss_mb)
        cpu = sum(c.cpu for c in procs)
        tally.cpu.append(tally.ref(cpu) if calibrate else cpu)
        tally.walls.append(sum(c.wall for c in procs))
        if time.perf_counter() >= end:
            return


def end_to_end(w, files, work, checker, seconds):
    tally = Tally()
    closed_loop(w, files.insts, work, checker, tally, seconds, calibrate=True)
    if not w.failover:
        # The recovery probe: this workload's (first) input and shard
        # count through the checkpointing serve path, after the window.
        checkpointed_run(w, files.insts[0], work, checker, tally)
    ckpt = os.path.join(work, "ckpt")
    spent = 0.0
    while tally.ckpt and len(tally.recover) < RESTORES_MAX and (
            len(tally.recover) < RESTORES or spent < RESTORE_CPU_S):
        if len(tally.recover) % 2 == 0:
            tally.calibrate(work)
        c = SPAWNER.spawn(restore_argv(files.restore, ckpt), work,
                          until_first=True)
        checker.first_after_restore(c, w.cut)
        tally.recover.append(tally.ref(c.cpu))
        spent += c.cpu
    setup_argv = (killed_argv(w, files.first, os.path.join(work, "ckpt-1"))
                  if w.failover else main_argv(w, files.first))
    for i in range(SETUP_PROBES):
        if i % 10 == 0:
            tally.calibrate(work)
        c = SPAWNER.spawn(setup_argv, work)
        checker.whole(c, stream=w.mode == "stream", jobs=1)
        tally.setup.append(tally.ref(c.cpu))
    if not (tally.cpu and tally.recover):
        return {}
    print(f"{w.n * w.parts} arrivals per iteration; median of "
          f"{len(tally.cpu)} iterations: {statistics.median(tally.cpu):.4f} "
          f"reference CPU s, {statistics.median(tally.walls):.4f} wall s; "
          f"calib {statistics.median(tally.calib):.4f} CPU s (median of "
          f"{len(tally.calib)})")
    return {
        "arrivals_per_cpu_s": w.n * w.parts / statistics.median(tally.cpu),
        "setup_s": statistics.median(tally.setup),
        "peak_rss_mb": max(tally.rss),
        "recover_s": statistics.median(tally.recover),
        "checkpoint_mb": statistics.median(tally.ckpt) / MB,
    }


def run_trace(w, inst, work, k):
    argv = ["trace", "--inst", inst, "--mode", w.mode,
            "--shards", str(w.shards), "--every", str(w.every),
            "--kill", str(w.kill), "--work", work,
            "--spans", os.path.join(work, f"spans-{k}.tsv")]
    if w.failover:
        argv.append("--failover-main")
    raw = {}
    for line in pbench(*argv).splitlines():
        name, value = line.split()
        raw[name] = value
    return raw


def per_layer(name, w, inst, work, checker, seconds):
    tally = Tally()
    closed_loop(w, [inst], work, checker, tally, seconds)
    if not tally.walls:
        return {}
    cli_wall = statistics.median(tally.walls)
    first, second = run_trace(w, inst, work, 1), run_trace(w, inst, work, 2)
    drift = [k for k in DETERMINISTIC if first.get(k) != second.get(k)]
    if drift:
        print(f"perfbench: deterministic counts differ between two traced "
              f"runs: {', '.join(drift)}")
        checker.ok = False
    t = {k: float(v) for k, v in first.items()}
    mismatches = int(t["run.mismatches"] + float(second["run.mismatches"]))
    checker.attempted += 2 * w.n
    checker.failed += mismatches
    checker.ok = checker.ok and mismatches == 0

    n = t["run.arrivals"]
    library = t["run.parse_s"] + t["run.main_untraced_s"]
    self_s = {layer: t.get(f"self.{layer}_s", 0.0)
              for layer in ("bench", "model", "obs", "service", "engine",
                            "core")}
    busy = {
        "psched": cli_wall - library,
        "model": self_s["model"],
        "obs": self_s["obs"],
        "service": self_s["service"],
        "engine": self_s["engine"] - t["core.busy_s"],
        "core": self_s["core"],
    }
    metrics = {k: t[k] for k in LAYER_METRICS}
    metrics["psched.wall_us_per_arrival"] = cli_wall / n * 1e6
    metrics["psched.front_end_us_per_arrival"] = busy["psched"] / n * 1e6
    for layer in ATTRIBUTED:
        metrics[f"attr.{layer}_share"] = busy[layer] / cli_wall

    print(f"attribution for {name}: CLI wall {cli_wall:.4f} s per "
          f"run of {int(n)} arrivals (median of {len(tally.walls)})")
    print(f"  {'layer':<8} {'busy_s':>10} {'share':>7}  source")
    notes = {
        "psched": "derived: CLI wall - in-process parse and main path",
        "model": "Io.of_string + Schedule.energy",
        "obs": "Json.to_string",
        "service": "Service.submit/drain/finalize (+checkpoint/restore)",
        "engine": "Online wrapper: engine.arrive - core.arrive "
                  "(+current_plan, snapshot)",
        "core": "Pd.arrive + Pd.schedule (Chen inside)",
    }
    for layer in ATTRIBUTED:
        print(f"  {layer:<8} {busy[layer]:>10.4f} "
              f"{busy[layer] / cli_wall:>7.1%}  {notes[layer]}")
    print(f"  chen: {t['chen.probes_per_arrival']:.1f} probes, "
          f"{t['chen.intervals_per_arrival']:.1f} intervals per arrival; "
          f"harness self time {self_s['bench']:.4f} s")
    print("  engine and core run on the worker domain under serve, beside "
          "the main domain's service/obs/psched time, so shares can sum "
          "past 100%")
    return metrics


# ---------------------------------------------------------------- main


@dataclasses.dataclass(frozen=True)
class Inputs:
    insts: list  # the workload's instances
    first: str  # the first's header and first arrival: set-up's input
    restore: str  # it through one arrival past the checkpoint: recovery's


def write_prefixes(w, files):
    with open(files.insts[0]) as f:
        lines = f.readlines()
    header = [x for x in lines if not x.startswith("job ")]
    jobs = [x for x in lines if x.startswith("job ")]
    for path, k in ((files.first, 1), (files.restore, w.cut + 1)):
        with open(path, "w") as f:
            f.writelines(header + jobs[:k])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    global SPAWNER
    SPAWNER = Spawner()
    try:
        run(args, w)
    finally:
        SPAWNER.close()


def run(args, w):
    build()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    files = Inputs([os.path.join(work, f"instance-{k}.txt")
                    for k in range(w.parts)],
                   os.path.join(work, "first.txt"),
                   os.path.join(work, "restore.txt"))
    refs = []
    for k, inst in enumerate(files.insts):
        # instance k of seed s is generated from seed s * parts + k, so
        # the instances of different seeds never coincide
        pbench("gen", "--family", w.family, "--n", str(w.n),
               "--seed", str(args.seed * w.parts + k), "-o", inst)
        ref_path = os.path.join(work, f"reference-{k}.txt")
        pbench("reference", "--inst", inst, "--shards", str(w.shards),
               "-o", ref_path)
        refs.append(load_reference(ref_path))
    write_prefixes(w, files)
    checker = Checker(refs)

    if args.trace:
        metrics = per_layer(args.workload, w, files.insts[0], work, checker,
                            args.seconds)
        units = {**LAYER_METRICS,
                 "psched.wall_us_per_arrival": "us",
                 "psched.front_end_us_per_arrival": "us",
                 **{f"attr.{x}_share": "ratio" for x in ATTRIBUTED}}
    else:
        metrics = end_to_end(w, files, work, checker, args.seconds)
        units = END_TO_END
    for d in ("ckpt", "ckpt-1"):
        shutil.rmtree(os.path.join(work, d), ignore_errors=True)
    if set(metrics) != set(units):
        checker.ok = False
    result = {
        "correct": checker.ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
