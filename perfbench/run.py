#!/usr/bin/env python3
"""The serve benchmark: `cpdb_cli serve` end to end, plus a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 15 --trace 0

Each run
  1. builds cpdb_cli and cpdb_perfbench (Release) into .bench_build/perfbench;
  2. checks that the workloads together issue every serve op and every
     supported (metric, answer) pair (`cpdb_perfbench coverage`), then
     generates this workload's tree files, snapshot and request file from
     the seed (`cpdb_perfbench gen`);
  3. replays the requests in process (`cpdb_perfbench replay`) to get the
     response every request must get;
  4. runs untimed serve sessions for WARMUP_S, then measured ones for
     --seconds: each session starts `cpdb_cli serve` with the workload's
     flags, and one client writes the whole request batch over a pipe,
     closes it, and reads every response. Serve runs under
     `cpdb_perfbench spawn`, which reports its CPU time and peak RSS from
     wait4. Every response line is checked against the replay;
  5. times serve's set-up (process start to exit over empty input, with the
     workload's flags and --catalog) after every measured session, at least
     SETUP_REPEATS times, reporting the median;
  6. with --trace 1, replays again with spans for the per-layer metrics.

The last line of standard output is one JSON object: `correct`, `attempted`
(requests sent), `failed` (error lines) and `metrics` — the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The line before it starts with "env " and records the
environment. The full result, spans included, is written under
.bench_build/results/.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RESULTS_DIR = os.path.join(".bench_build", "results")
CLI = os.path.join(BUILD_DIR, "cpdb", "cpdb_cli")
TOOL = os.path.join(BUILD_DIR, "cpdb_perfbench")

SETUP_REPEATS = 41   # minimum set-up timings per run; the median is reported
MIN_SESSIONS = 3
WARMUP_S = 2.0       # untimed sessions before the measured ones


class BenchError(Exception):
    """A failure that leaves no result to print (build, generation, replay)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd, what, capture=False):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr[-4000:]}")
    return proc.stdout


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "w") as build_log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "cpdb_cli",
                      "cpdb_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not leave a cache that skips it next time.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                with open(log_path) as f:
                    raise BenchError("build failed:\n" + f.read()[-4000:])


class LineReader:
    """Reads newline-terminated lines from a pipe."""

    def __init__(self, fd):
        self.fd = fd
        self.buf = b""

    def readline(self):
        while True:
            cut = self.buf.find(b"\n")
            if cut >= 0:
                line, self.buf = self.buf[:cut], self.buf[cut + 1:]
                return line
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk


def time_setup(args):
    """Process start to exit over empty input, in seconds."""
    start = time.perf_counter_ns()
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    proc.wait()
    elapsed = (time.perf_counter_ns() - start) / 1e9
    if proc.returncode != 0:
        raise BenchError(f"serve set-up exited {proc.returncode}")
    return elapsed


class Session:
    """One `cpdb_cli serve` process driven over its pipes. It runs under
    `cpdb_perfbench spawn`, which reports serve's own CPU time and peak RSS:
    wait4 on a child of this (much larger) process would report this
    process's RSS as the child's peak."""

    def __init__(self, args, work):
        self.rusage_path = os.path.join(work, "serve.rusage")
        with open(os.path.join(work, "serve.stderr"), "ab") as err:
            self.start = time.perf_counter_ns()
            self.proc = subprocess.Popen(
                [TOOL, "spawn", f"--rusage={self.rusage_path}", "--"] + args,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, bufsize=0)
        self.reader = LineReader(self.proc.stdout.fileno())
        self.responses = []
        self.last_byte = self.start

    def batch(self, lines):
        os.write(self.proc.stdin.fileno(), b"".join(lines))
        self.proc.stdin.close()
        while True:
            response = self.reader.readline()
            if response is None:
                break
            self.last_byte = time.perf_counter_ns()
            self.responses.append(response)

    def kill(self):
        """Stops the process after a failure and waits for it to end."""
        if self.proc.returncode is None:
            self.proc.kill()  # serve dies with its launcher (PR_SET_PDEATHSIG)
            self.proc.wait()

    def finish(self):
        """Waits for serve and returns its CPU seconds and peak RSS in MiB."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        with open(self.rusage_path) as f:
            user, system, maxrss_kib = f.read().split()
        return float(user) + float(system), int(maxrss_kib) / 1024.0


def run_session(plan, requests, expected, stats):
    """Runs one serve session, checks its responses against `expected`, and
    adds its figures to `stats`."""
    session = Session([CLI] + plan["serve_args"], plan["dir"])
    try:
        first = time.perf_counter_ns()
        session.batch(requests)
        cpu_s, peak_rss_mb = session.finish()
    except BaseException:
        session.kill()
        raise
    last = session.last_byte
    stats["sent"] += len(requests)
    check_responses(session.responses, expected, stats)
    stats["exit_codes"].append(session.proc.returncode)
    stats["wall_s"].append((last - session.start) / 1e9)
    stats["requests_per_s"].append(len(requests) / ((last - first) / 1e9))
    stats["cpu_s"].append(cpu_s)
    stats["peak_rss_mb"].append(peak_rss_mb)


def check_responses(responses, expected, stats):
    """Counts error lines and answer mismatches against the replay ("*"
    marks stats and metrics lines, whose counters are not answers)."""
    stats["mismatches"] += abs(len(expected) - len(responses))
    for got, exp in zip(responses, expected):
        text = got.decode("utf-8", "replace")
        if text.startswith("error\t"):
            stats["errors"] += 1
        elif exp != "*" and text != exp:
            stats["mismatches"] += 1


def new_stats():
    return {"sent": 0, "errors": 0, "mismatches": 0, "exit_codes": [], "wall_s": [],
            "requests_per_s": [], "cpu_s": [], "peak_rss_mb": []}


def run_replay(workload, work, trace):
    return json.loads(run_checked(
        [TOOL, "replay", f"--workload={workload}", f"--dir={work}", f"--trace={trace}"],
        "replay", capture=True))


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if opts.workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchError(f"unknown workload {opts.workload}")
    wanted = bench["per_layer" if opts.trace else "end_to_end"]

    build()
    run_checked([TOOL, "coverage", f"--seed={opts.seed}"], "coverage check", capture=True)
    work = os.path.join(WORK_DIR, f"{opts.workload}-{opts.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "trees"))
    run_checked([TOOL, "gen", f"--workload={opts.workload}", f"--seed={opts.seed}",
                 f"--dir={work}"], "workload generation")
    with open(os.path.join(work, "plan.json")) as f:
        plan = json.load(f)
    plan["dir"] = work
    replay = run_replay(opts.workload, work, 0)
    with open(os.path.join(work, "expected.txt")) as f:
        expected = f.read().splitlines()
    with open(plan["requests"], "rb") as f:
        requests = [line + b"\n" for line in f.read().splitlines() if line]
    gc.disable()  # no collector pauses inside timed sessions

    # Untimed sessions first, until the machine has run the workload for
    # WARMUP_S: processors that speed up under sustained load otherwise
    # split one run's sessions between two speeds.
    discarded = new_stats()
    begin = time.monotonic()
    while time.monotonic() - begin < WARMUP_S:
        run_session(plan, requests, expected, discarded)
    # Set-up is timed once after every measured session, then topped up to
    # SETUP_REPEATS, so its samples spread over the whole run.
    stats = new_stats()
    setup = []
    begin = time.monotonic()
    while time.monotonic() - begin < opts.seconds or len(stats["wall_s"]) < MIN_SESSIONS:
        run_session(plan, requests, expected, stats)
        setup.append(time_setup([CLI] + plan["serve_args"]))
    measured_s = time.monotonic() - begin
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup([CLI] + plan["serve_args"]))
    if opts.trace:
        replay = run_replay(opts.workload, work, 1)
    errors = discarded["errors"] + stats["errors"]
    mismatches = discarded["mismatches"] + stats["mismatches"]

    values = {name: statistics.median(stats[name])
              for name in ("wall_s", "requests_per_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setup)
    if opts.trace:
        # Transport: what a request costs end to end beyond the in-process
        # scheduler — pipes, request-line parse and response format: its
        # share of the session wall time less set-up, minus its share of
        # the in-process ExecuteBatch time.
        e2e_ns = (values["wall_s"] - values["setup_s"]) * 1e9 / len(requests)
        values = dict(replay["metrics"])
        values["tools.transport_ns"] = e2e_ns - replay["in_process_request_ns"]

    correct = (mismatches == 0 and errors == 0
               and all(code == 0 for code in discarded["exit_codes"] + stats["exit_codes"]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = discarded["sent"] + stats["sent"]
    env = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "nproc": os.cpu_count(), "build_type": replay["build_type"],
        "compiler": replay["compiler"], "git_commit": git_commit(),
        "source_digest": source_digest(), "serve_args": plan["serve_args"],
        "requests_per_session": len(requests), "sessions": len(stats["wall_s"]),
        "measured_s": measured_s, "setup_samples": len(setup),
        "warmup_sessions": len(discarded["wall_s"]),
        "error_rate": errors / max(1, attempted), "mismatches": mismatches,
    }
    result = {"correct": correct, "attempted": attempted, "failed": errors,
              "metrics": metrics}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"env": env, "result": result, "replay": replay,
                   "all_values": values, "sessions": stats}, f, indent=1)
    if opts.trace:
        shutil.copyfile(os.path.join(work, "spans.json"), stem + ".spans.json")
    print("env " + json.dumps(env))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
