#!/usr/bin/env python3
"""The repository benchmark: how fast `lh-experiments` regenerates the
paper's results, end to end and layer by layer.

    python3 perfbench/run.py --workload quick_all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the release binaries
(`cargo build --release -p lh-bench`, plus the per-layer probe package
in `perfbench/layers` for `--trace 1`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload the way users run it,
checks every output, and prints one JSON object as the last line of
standard output: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. Workloads, metrics and checks are described
in `perfbench/README.md`.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("quick_all", "fig13_default", "serve_mixed")
# The CLI's default master seed: the committed snapshots and recorded
# digests are taken at it.
DEFAULT_SEED = 1
SNAPSHOT_IDS = ("fig2", "fig3", "fig6", "fig13", "chansweep", "mitsweep")
# serve_mixed: the cheap quick experiments primed once at seed 1 and
# re-requested warm, and the share of cold fig3 requests.
PRIMED = ("fig2", "fig3", "fig6", "fig9", "counterleak", "rowpolicy", "table3")
COLD_SHARE = 0.1
CLIENTS = 2
# Cold served envelopes compared against the CLI after the request phase
# (the first ones in submission order); warm ones are all compared.
COLD_CHECKS = 16
# Cold fig3 runs the per-layer probes replay for serve_mixed.
LAYER_COLD_RUNS = 8
# Set-ups per run, of which setup_s is the median: CLI launches stopped
# at their first `started` line, or serve launches with their priming.
SETUP_PROBES = 21
# Request phase of the short serve run the CLI workloads' traced
# runs use to measure the serve layer.
SERVE_PROBE_SECONDS = 2.0
# Hard cap on one run after the build, below the 180 s the contract allows.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (not an output mismatch)."""


def bench_metrics(values, section):
    """`values` for the metrics BENCHMARK.json names in `section`
    (`end_to_end` or `per_layer`), as name -> (value, unit)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = sorted(m["name"] for m in spec if m["name"] not in values)
    if missing:
        raise BenchError(f"{section} metrics missing: {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, q):
    """The q-quantile by nearest rank (a sample that was measured)."""
    s = sorted(xs)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


class Checks:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            log(f"CHECK FAILED: {what}")
        return ok

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} of {attempted} {what} failed")
            log(f"FAILED: {failed} of {attempted} {what}")


# ---------------------------------------------------------------- build


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def binary(name):
    return target_dir() / "release" / name


def build(trace):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository (no Cargo.toml / crates/bench)")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    # A root `cargo build --release` builds only the umbrella crate and
    # leaves no lh-experiments binary, hence `-p lh-bench`.
    steps = [["cargo", "build", "--release", "--offline", "-p", "lh-bench"]]
    if trace:
        steps.append(
            ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/layers/Cargo.toml"]
        )
    for cmd in steps:
        t = now()
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            tail = "\n".join(r.stderr.splitlines()[-30:])
            raise BenchError(f"`{' '.join(cmd)}` failed:\n{tail}")
        log(f"built ({' '.join(cmd[3:])}) in {now() - t:.1f} s")


def machine_facts():
    def cmd_out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # The checkout the benchmark runs in need not be a git repository;
    # the digest of the program's and the benchmark's sources identifies
    # the commit either way.
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench", "BENCHMARK.json"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file() and "__pycache__" not in f.parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": cmd_out(["rustc", "-V"]) or "unknown",
        "commit": cmd_out(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": h.hexdigest(),
        "profile": "release ([profile.release] of the root Cargo.toml, debug = true)",
    }


# ------------------------------------------------------------ processes


def count_files(d):
    return sum(1 for f in Path(d).rglob("*") if f.is_file()) if Path(d).exists() else 0


def proc_status_kb(pid, field):
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def child_pids(pid):
    out = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


def has_ended(pid):
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except (OSError, IndexError):
        return True


def become_subreaper():
    """Makes orphaned descendants (serve's workers, once the server is gone)
    children of this process, so it can reap them (Linux only)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def wait_ended(pids, timeout):
    deadline = now() + timeout
    while True:
        for p in pids:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        if all(has_ended(p) for p in pids) or now() >= deadline:
            return all(has_ended(p) for p in pids)
        time.sleep(0.01)


def reap(p):
    """Waits for `p` and returns its peak RSS in kB (its own rusage)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def kill_group(p):
    children = child_pids(p.pid)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(p.pid, sig)
        except ProcessLookupError:
            pass
        try:
            p.wait(timeout=5)
        except subprocess.TimeoutExpired:
            continue
        if wait_ended(children, 5):
            return
    for c in children:
        try:
            os.kill(c, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if not wait_ended(children, 5):
        raise BenchError(f"worker processes {children} did not end")


LIVE = []  # process groups to stop if the run is interrupted


# ------------------------------------------------------------ CLI runs


def launch_setup(argv):
    """Launch of `lh-experiments` until its first `started` line."""
    t0 = now()
    p = subprocess.Popen([str(binary("lh-experiments"))] + argv, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, start_new_session=True)
    LIVE.append(p)
    line = p.stdout.readline()
    setup = now() - t0
    kill_group(p)
    p.stdout.close()
    LIVE.remove(p)
    if b'"event":"started"' not in line:
        raise BenchError(f"no started line from {' '.join(argv)}: {line[:200]!r}")
    return setup


def run_stream(argv, work):
    """One `--stream` invocation, read line by line as it arrives."""
    err_path = work / "stderr.log"
    t0 = now()
    with open(err_path, "wb") as err:
        p = subprocess.Popen([str(binary("lh-experiments"))] + argv, stdout=subprocess.PIPE,
                             stderr=err, start_new_session=True)
        LIVE.append(p)
        setup = None
        started_at = {}
        latencies = []
        envelopes = {}
        announced = done = wakes = cmds = 0
        for raw in p.stdout:
            t = now()
            ev = json.loads(raw)
            kind = ev.get("event")
            if kind == "started":
                setup = t - t0 if setup is None else setup
                started_at[ev["experiment"]] = t
                announced += ev["units"]
            elif kind == "unit":
                done += 1
                m = ev.get("metrics", {})
                wakes += m.get("sim.service_wakes", 0)
                cmds += sum(v for k, v in m.items() if k.startswith("sim.cmd."))
            elif kind == "finished":
                latencies.append(t - started_at[ev["experiment"]])
                # The envelope is the line's last key: cut its bytes out
                # verbatim rather than re-rendering them.
                key = b',"envelope":'
                envelopes[ev["experiment"]] = raw.rstrip(b"\n")[raw.index(key) + len(key):-1]
        rss_kb = reap(p)
        p.stdout.close()
        LIVE.remove(p)
    wall = now() - t0
    return {
        "rc": p.returncode,
        "stderr": err_path.read_text(errors="replace")[-2000:],
        "wall": wall,
        "setup": setup,
        "latencies": latencies,
        "envelopes": envelopes,
        "announced": announced,
        "done": done,
        "wakes": wakes,
        "cmds": cmds,
        "rss_kb": rss_kb,
    }


def split_pretty(text):
    """Splits concatenated `--format json` envelopes into per-experiment bytes."""
    docs, cur = {}, []
    for line in text.splitlines(keepends=True):
        cur.append(line)
        if line == b"}\n":
            doc = b"".join(cur)
            docs[json.loads(doc)["experiment"]] = doc
            cur = []
    return docs


def load_digests():
    return json.loads((HERE / "digests.json").read_text())


class Seen:
    """Digests and counts of earlier runs of these sources in this checkout,
    so every run of a set at one seed must agree with the first. One file
    per source digest: a change to the program or the benchmark starts a
    new set and is never compared with the runs of another."""

    def __init__(self, source_sha256):
        self.path = STATE / f"seen-{source_sha256[:16]}.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def agree(self, key, value, checks):
        old = self.data.setdefault(key, value)
        if old != value:
            checks.check(False, f"{key} differs from an earlier run: {value} vs {old}")
            return
        checks.check(True, key)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def cli_argv(workload, seed, cache_dir, trace_out=None):
    if workload == "quick_all":
        argv = ["all", "--scale", "quick", "--jobs", "2", "--cache-dir", str(cache_dir)]
    else:
        argv = ["fig13", "--scale", "default", "--jobs", "2", "--no-cache"]
    argv += ["--seed", str(seed), "--stream", "--quiet"]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    return argv


def cli_iteration(workload, seed, work, checks, seen, trace_out=None):
    """One cold run of a CLI workload plus its output checks."""
    cache_dir = work / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    r = run_stream(cli_argv(workload, seed, cache_dir, trace_out), work)
    failed_units = r["announced"] - r["done"] or int(r["rc"] != 0)
    checks.ops(max(r["announced"], 1), failed_units,
               f"units of {workload} (exit {r['rc']}: {r['stderr'][-300:]})")
    envelopes = r["envelopes"]
    digests = {e: sha256(b) for e, b in envelopes.items()}
    # Simulated work depends on the master seed; the unit DAG and the cache
    # layout do not.
    counts = {"sim.wakes": r["wakes"], "sim.cmds": r["cmds"]}
    shape = {"core.units": r["done"]}
    if workload == "quick_all":
        shape["harness.cache_entries"] = count_files(cache_dir)
        # The warm replay prints every envelope in `--format json` bytes.
        warm = subprocess.run(
            [str(binary("lh-experiments")), "all", "--scale", "quick", "--seed", str(seed),
             "--jobs", "2", "--cache-dir", str(cache_dir), "--format", "json", "--quiet"],
            capture_output=True, timeout=60)
        docs = split_pretty(warm.stdout) if warm.returncode == 0 else {}
        checks.check(sorted(docs) == sorted(envelopes), "warm replay returns every envelope")
        for e, doc in docs.items():
            checks.check(json.loads(doc) == json.loads(envelopes.get(e, b"null")),
                         f"warm replay of {e} matches the cold envelope")
        r["pretty"] = docs
        if seed == DEFAULT_SEED:
            for e in SNAPSHOT_IDS:
                snap = (ROOT / "crates" / "bench" / "snapshots" / f"{e}.quick.json").read_bytes()
                checks.check(docs.get(e) == snap, f"{e} envelope byte-matches its committed snapshot")
    if seed == DEFAULT_SEED:
        recorded = load_digests()[workload]
        checks.check(digests == recorded,
                     f"{workload} envelopes match the recorded digests "
                     f"(differ: {sorted(e for e in set(digests) | set(recorded) if digests.get(e) != recorded.get(e))})")
    seen.agree(f"{workload}/seed={seed}/envelopes", digests, checks)
    seen.agree(f"{workload}/seed={seed}/counts", counts, checks)
    seen.agree(f"{workload}/shape", shape, checks)
    r["counts"] = dict(counts, **shape)
    return r


def iteration_seed(seed, i):
    """Master seed of a run's i-th cold run: `seed` itself first, then seeds
    derived from it. Work varies with the master seed (fig13's mixes, for
    one), so spreading a run over several seeds steadies its medians."""
    return seed if i == 0 else (seed * 256 + i) % 2**64


def cli_workload(workload, seed, seconds, work, checks, seen):
    setups = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe{i}"
        setups.append(launch_setup(cli_argv(workload, seed, probe_dir)))
        shutil.rmtree(probe_dir, ignore_errors=True)
    runs = []
    t0 = now()
    while True:
        runs.append(cli_iteration(workload, iteration_seed(seed, len(runs)), work, checks, seen))
        if now() - t0 + median([r["wall"] for r in runs]) > seconds:
            break
    setups += [r["setup"] for r in runs if r["setup"] is not None]
    walls = [r["wall"] for r in runs]
    latencies = [x for r in runs for x in r["latencies"]]
    log(f"{workload}: {len(runs)} cold run(s), {len(latencies)} experiment latencies, "
        f"{len(setups)} setup samples, counts {runs[0]['counts']}")
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "sim_wakes_per_s": median([r["wakes"] / r["wall"] for r in runs]),
        "req_p50_ms": median(latencies) * 1e3,
        "req_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "req_per_s": median([len(r["latencies"]) / r["wall"] for r in runs]),
    }


# ---------------------------------------------------------------- serve


class Tracer:
    """Client-side spans in the Chrome trace_event shape of --trace-out."""

    def __init__(self):
        self.lock = threading.Lock()
        self.events = []
        self.next_id = 1_000_000_000  # clear of the layer probes' ids
        self.epoch = now()

    def span(self, name, start, end, experiment, unit, parent=0):
        with self.lock:
            self.next_id += 1
            sid = self.next_id
            self.events.append({
                "name": name, "cat": "serve", "ph": "X",
                "ts": int((start - self.epoch) * 1e6), "dur": int((end - start) * 1e6),
                "pid": os.getpid(), "tid": threading.get_ident() % 1_000_000,
                "args": {"layer": "serve", "experiment": experiment, "unit": unit,
                         "id": sid, "parent": parent},
            })
        return sid


def http_call(port, method, path, body=None):
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        c.request(method, path, body=body, headers=headers)
        r = c.getresponse()
        return r.status, r.read()
    finally:
        c.close()


def serve_request(port, experiment, seed, tracer=None):
    """POST /runs, read /runs/<id>/stream to its end, GET the envelope."""
    t0 = now()
    body = json.dumps({"experiment": experiment, "scale": "quick", "seed": seed})
    status, reply = http_call(port, "POST", "/runs", body)
    t1 = now()
    if status != 202:
        return {"ok": False, "why": f"POST /runs answered {status}"}
    run_id = json.loads(reply)["id"]
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    t_started = finished = None
    try:
        c.request("GET", f"/runs/{run_id}/stream")
        r = c.getresponse()
        if r.status != 200:
            return {"ok": False, "why": f"stream answered {r.status}"}
        # Read to the end of the stream, which the server closes once the
        # run is done: its `finished` line is pushed a moment before the
        # run is marked done, so an envelope request sent on that line
        # alone can meet a 409 (see README.md, "Known defects").
        for line in r:
            if b'"event":"started"' in line and t_started is None:
                t_started = now()
            elif b'"event":"finished"' in line:
                finished = line
    finally:
        c.close()
    t2 = now()
    if finished is None or t_started is None:
        return {"ok": False, "why": f"run {run_id} stream ended without started/finished"}
    status, envelope = http_call(port, "GET", f"/runs/{run_id}/envelope")
    t3 = now()
    if status != 200:
        return {"ok": False, "why": f"envelope answered {status}"}
    if tracer:
        unit = f"run {run_id} seed {seed}"
        sid = tracer.span("serve.request", t0, t3, experiment, unit)
        tracer.span("serve.submit", t0, t1, experiment, unit, sid)
        tracer.span("serve.queue_wait", t1, t_started, experiment, unit, sid)
        tracer.span("serve.stream", t_started, t2, experiment, unit, sid)
        tracer.span("serve.envelope", t2, t3, experiment, unit, sid)
    return {
        "ok": True,
        "total": t3 - t0,
        "submit": t1 - t0,
        "queue_wait": t_started - t1,
        "envelope_time": t3 - t2,
        "envelope": envelope,
        "finished": finished,
    }


class Server:
    """`lh-experiments serve --workers 2` on an empty cache, primed."""

    def __init__(self, work, tag, checks):
        self.cache = work / f"serve-cache-{tag}"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.t0 = now()
        self.p = subprocess.Popen(
            [str(binary("lh-experiments")), "serve", "--workers", "2", "--addr", "127.0.0.1:0",
             "--cache-dir", str(self.cache)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
        LIVE.append(self.p)
        first = self.p.stderr.readline().decode(errors="replace")
        # Worker errors land on the server's stderr, which it shares with them.
        self.stderr = deque(maxlen=20)
        self.drain = threading.Thread(target=self.stderr.extend, args=(self.p.stderr,), daemon=True)
        self.drain.start()
        m = re.search(r"127\.0\.0\.1:(\d+)", first)
        if not m:
            self.stop()
            raise BenchError(f"serve did not report its address: {first!r}")
        self.port = int(m.group(1))
        while True:
            try:
                if http_call(self.port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if now() - self.t0 > 30:
                raise BenchError("serve never answered /healthz")
            time.sleep(0.002)
        self.primed = {}
        for e in PRIMED:
            r = serve_request(self.port, e, DEFAULT_SEED)
            if checks.check(r["ok"], f"priming {e}: {r.get('why')}"):
                self.primed[e] = r["envelope"]
        self.setup = now() - self.t0

    def rss_kb(self, field):
        return proc_status_kb(self.p.pid, field) + sum(
            proc_status_kb(c, field) for c in child_pids(self.p.pid))

    def stop(self):
        kill_group(self.p)
        self.drain.join(timeout=5)
        self.p.stderr.close()
        LIVE.remove(self.p)
        for line in self.stderr:
            log(f"serve stderr: {line.decode(errors='replace').rstrip()}")


class RequestMix:
    """The seeded request sequence: ~9 in 10 warm re-submissions of a primed
    (experiment, seed 1), ~1 in 10 cold fig3 with a fresh seed."""

    def __init__(self, seed):
        self.rng = random.Random(f"serve_mixed/{seed}")
        self.lock = threading.Lock()
        self.index = 0
        self.used = {DEFAULT_SEED}

    def cold_seed(self):
        while True:
            s = self.rng.randrange(2, 1 << 40)
            if s not in self.used:
                self.used.add(s)
                return s

    def next(self):
        with self.lock:
            self.index += 1
            if self.rng.random() < COLD_SHARE:
                return self.index, "cold", "fig3", self.cold_seed()
            return self.index, "warm", self.rng.choice(PRIMED), DEFAULT_SEED


def cold_seeds(seed, n):
    """The first `n` cold seeds of the request sequence at `seed`."""
    mix, out = RequestMix(seed), []
    while len(out) < n:
        _, kind, _, s = mix.next()
        if kind == "cold":
            out.append(s)
    return out


def request_phase(server, mix, seconds, tracer=None):
    results = []
    lock = threading.Lock()
    deadline = now() + seconds

    def client():
        while now() < deadline:
            index, kind, experiment, seed = mix.next()
            # With a tracer, every other request records its spans, so
            # traced and untraced requests share one time window.
            traced = tracer is not None and index % 2 == 1
            try:
                r = serve_request(server.port, experiment, seed, tracer if traced else None)
                r["traced"] = traced
            except Exception as e:  # noqa: BLE001 -- any error fails this request
                r = {"ok": False, "why": f"{type(e).__name__}: {e}"}
            with lock:
                results.append((index, kind, experiment, seed, r))

    t0 = now()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, now() - t0


def cli_envelope(experiment, seed):
    r = subprocess.run([str(binary("lh-experiments")), experiment, "--scale", "quick", "--seed",
                        str(seed), "--format", "json", "--no-cache", "--quiet"],
                       capture_output=True, timeout=60)
    return r.stdout if r.returncode == 0 else None


def serve_run(seed, seconds, work, checks, tracer=None, setups=SETUP_PROBES):
    """Set-up (launch, /healthz, priming) `setups` times, then the closed-loop
    request phase on the last server."""
    setup_times, primed = [], None
    server = None
    try:
        for i in range(setups):
            if server:
                server.stop()
                server = None
            server = Server(work, i, checks)
            setup_times.append(server.setup)
            if primed is not None:
                checks.check(server.primed == primed, "primed envelopes repeat across set-ups")
            primed = server.primed
        rss_before = server.rss_kb("VmRSS")
        mix = RequestMix(seed)
        results, wall = request_phase(server, mix, seconds, tracer)
        peak_kb = server.rss_kb("VmHWM")
        rss_growth = server.rss_kb("VmRSS") - rss_before
    finally:
        if server:
            server.stop()

    results.sort(key=lambda x: x[0])
    ok = [x for x in results if x[4]["ok"]]
    checks.ops(len(results), len(results) - len(ok), "serve requests")
    for _, _, _, _, r in results:
        if not r["ok"]:
            log(f"request failed: {r['why']}")
    wakes = 0
    cold_checked = 0
    for _, kind, experiment, s, r in ok:
        if kind == "warm":
            checks.check(r["envelope"] == primed.get(experiment),
                         f"warm {experiment} envelope matches the primed one")
        else:
            wakes += json.loads(r["envelope"])["metrics"]["totals"].get("sim.service_wakes", 0)
            if cold_checked < COLD_CHECKS:
                cold_checked += 1
                checks.check(r["envelope"] == cli_envelope(experiment, s),
                             f"served fig3 seed {s} byte-matches the CLI")
    for e, env in primed.items():
        checks.check(env == cli_envelope(e, DEFAULT_SEED), f"served {e} byte-matches the CLI")

    def ms(rows, key):
        return median([r[key] for *_, r in rows]) * 1e3

    totals = [r["total"] for *_, r in ok]
    warm = [x for x in ok if x[1] == "warm"]
    cold = [x for x in ok if x[1] == "cold"]
    beyond = len(totals) - int(0.99 * len(totals))
    log(f"serve: {len(results)} requests ({len(cold)} cold) in {wall:.2f} s, "
        f"{beyond} samples beyond p99, setups {['%.3f' % s for s in setup_times]}")
    return {
        "e2e": {
            "wall_s": wall,
            "setup_s": median(setup_times),
            "sim_wakes_per_s": wakes / wall,
            "req_p50_ms": median(totals) * 1e3,
            "req_p99_ms": nearest_rank(totals, 0.99) * 1e3,
            "req_per_s": len(ok) / wall,
        },
        "layers": {
            "peak_rss_mb": peak_kb / 1024,
            "serve.warm_p50_ms": ms(warm, "total"),
            "serve.cold_p50_ms": ms(cold, "total"),
            "serve.submit_ms": ms(ok, "submit"),
            "serve.queue_wait_ms": ms(ok, "queue_wait"),
            "serve.envelope_ms": ms(ok, "envelope_time"),
            "serve.rss_kb_per_req": rss_growth / max(len(results), 1),
        },
        "trace_overhead": median([r["total"] for *_, r in warm if r["traced"]])
        / median([r["total"] for *_, r in warm if not r["traced"]]) - 1 if tracer else None,
    }


# ----------------------------------------------------------- trace runs


def experiment_ids():
    r = subprocess.run([str(binary("lh-experiments")), "list"], capture_output=True, text=True,
                       check=True, timeout=30)
    return [line.split()[0] for line in r.stdout.splitlines()[1:] if line.strip()]


def run_layers(runs, work, trace_out):
    cmd = [str(binary("lh-perfbench-layers")), "--work", str(work / "layers"),
           "--trace-out", str(trace_out)]
    for e, scale, s in runs:
        cmd += ["--run", f"{e}:{scale}:{s}"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if r.returncode != 0:
        raise BenchError(f"per-layer probes failed:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout.splitlines()[-1])


def traced(workload, seed, seconds, work, checks, seen):
    tracer = Tracer()
    layer_trace = work / "layers-trace.json"
    values = {}
    if workload == "serve_mixed":
        serve = serve_run(seed, seconds, work, checks, tracer)
        values["obs.trace_overhead_frac"] = serve["trace_overhead"]
        runs = [(e, "quick", DEFAULT_SEED) for e in PRIMED]
        runs += [("fig3", "quick", s) for s in cold_seeds(seed, LAYER_COLD_RUNS)]
        reference = {f"{e}-{s}": cli_envelope(e, s) for e, _, s in runs}
    else:
        # Untraced, `--trace-out`, untraced: a steady drift in machine speed
        # during the three runs cancels out of the ratio.
        plain = cli_iteration(workload, seed, work, checks, seen)
        runs = [plain, cli_iteration(workload, seed, work, checks, seen, work / "program-trace.json"),
                cli_iteration(workload, seed, work, checks, seen)]
        walls = [r["wall"] for r in runs]
        values["obs.trace_overhead_frac"] = 2 * walls[1] / (walls[0] + walls[2]) - 1
        peak_rss_mb = median([r["rss_kb"] / 1024 for r in runs])
        serve = serve_run(seed, SERVE_PROBE_SECONDS, work, checks, tracer, setups=1)
        if workload == "quick_all":
            runs = [(e, "quick", seed) for e in experiment_ids()]
            reference = {f"{e}-{seed}": doc for e, doc in plain["pretty"].items()}
        else:
            runs = [("fig13", "default", seed)]
            reference = {f"fig13-{seed}": plain["envelopes"]["fig13"]}
        serve["layers"]["peak_rss_mb"] = peak_rss_mb
    layers = run_layers(runs, work, layer_trace)
    # The probes' own DAG walk must reproduce the program's envelopes.
    for key, ref in reference.items():
        mine = (work / "layers" / "envelopes" / f"{key}.json").read_bytes()
        same = mine == ref if workload != "fig13_default" else json.loads(mine) == json.loads(ref)
        checks.check(same, f"layer probes reproduce the {key} envelope")
    counts = layers["counts"]
    seen.agree(f"{workload}/layer-shape",
               {k: counts[k] for k in ("core.units", "harness.cache_entries")}, checks)
    seen.agree("fixed-cell/counts", {k: counts[k] for k in ("sim.wakes", "sim.cmds", "dram.cmds")},
               checks)
    checks.check(counts["sim.cmds"] == counts["dram.cmds"], "DRAM replay saw every simulated command")
    values.update(layers["values"])
    values.update(counts)
    values.update(serve["layers"])

    # One trace: the layer probes' spans and the serve client's spans.
    doc = json.loads(layer_trace.read_text())
    doc["traceEvents"] += tracer.events
    out = STATE / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps(doc))
    log(f"trace: {len(doc['traceEvents'])} spans written to {out.relative_to(ROOT)}")
    return bench_metrics(values, "per_layer")


# ----------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite perfbench/digests.json from this run (seed 1, --trace 0 only)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    become_subreaper()
    try:
        build(args.trace)
        facts = machine_facts()
        STATE.mkdir(parents=True, exist_ok=True)
        work = STATE / "work" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)

        def timeout(*_):
            raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")

        signal.signal(signal.SIGALRM, timeout)
        signal.alarm(RUN_TIMEOUT_S)
        checks, seen = Checks(), Seen(facts["source_sha256"])
        try:
            if args.record_digests:
                record_digests(args.workload, work)
                return 0
            if args.trace:
                metrics = traced(args.workload, args.seed, args.seconds, work, checks, seen)
            else:
                if args.workload == "serve_mixed":
                    e2e = serve_run(args.seed, args.seconds, work, checks)["e2e"]
                else:
                    e2e = cli_workload(args.workload, args.seed, args.seconds, work, checks, seen)
                metrics = bench_metrics(e2e, "end_to_end")
        finally:
            signal.alarm(0)
            for p in list(LIVE):
                kill_group(p)
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"error: {e}")
        return 2

    correct = checks.failed == 0
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, machine=facts, errors=checks.errors), indent=1))
    print(f"== {args.workload} seed {args.seed} ({'per-layer' if args.trace else 'end-to-end'}) "
          f"on {facts['nproc']} x {facts['cpu_model']}, {facts['rustc']}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:>16.6g} {u}")
    print(f"  {'failed_frac':<40} {checks.failed / checks.attempted:>16.6g} "
          f"({checks.failed} of {checks.attempted} operations)")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def record_digests(workload, work):
    """Rewrites this workload's entry of digests.json from a seed-1 run."""
    if workload == "serve_mixed":
        raise BenchError("serve_mixed envelopes are checked against the CLI, not digests")
    r = run_stream(cli_argv(workload, DEFAULT_SEED, work / "cache"), work)
    if r["rc"] != 0:
        raise BenchError(f"{workload} failed: {r['stderr']}")
    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    digests[workload] = {e: sha256(b) for e, b in r["envelopes"].items()}
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    log(f"recorded {len(digests[workload])} digests for {workload}")


if __name__ == "__main__":
    sys.exit(main())
