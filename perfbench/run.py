#!/usr/bin/env python3
"""The repository benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  The first run configures and builds the
library, the shard worker and the measuring binary from source into
.bench_build/ (or $CARGO_TARGET_DIR); later runs only re-check the build.
The workload then runs in its own process (perfbench/cpp/main.cpp), which
checks its outputs against the correctness gates.  This script prints the
machine/build fingerprint and the diagnostics, and as the last line of
stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and a Chrome trace is
written under the build directory.  Exit status 0 means every gate passed.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deep_dp", "wide_decomp", "churn_service", "sharded")
BUILD_TIMEOUT_S = 850


def run_timeout(seconds):
    """A run measures for `seconds`, then checks and (traced) replays."""
    return 2 * seconds + 120


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    """The environment of every child: temporary files (the compiler's,
    the shard sockets' default) stay inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr, env=child_env(),
                             timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False
    return res.returncode == 0


def ensure_build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_checked(cmd, BUILD_TIMEOUT_S):
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_checked(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S):
        log("build failed")
        return None
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(out, args):
    """Runs the measuring binary in its own process group; returns its
    parsed result line, or None."""
    run_dir = os.path.join(out, "out")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", os.path.relpath(run_dir, ROOT),
           "--shardd", os.path.join(out, "hgp_shardd")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, env=child_env(),
                            start_new_session=True)
    timeout = run_timeout(args.seconds)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"workload {args.workload} exceeded {timeout} s")
        return None
    finally:
        # The shard workers belong to the binary's process group; none may
        # outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        log(f"workload exited {proc.returncode} without a result")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"unparsable result line: {lines[-1][:200]}")
        return None


def order_metrics(spec_metrics, measured, fill_missing, failures):
    """Orders the measured metrics as BENCHMARK.json lists them.  A name
    BENCHMARK.json does not list, or a unit that differs, is a failure; so
    is a missing name, unless `fill_missing` (per-layer metrics: a
    workload reports only the layers it reaches), which reports it as 0.
    Returns the ordered metrics and the names filled in."""
    out, filled = {}, []
    for m in spec_metrics:
        got = measured.get(m["name"])
        if got is None:
            if not fill_missing:
                failures.append(f"metric {m['name']} was not measured")
                continue
            got = {"value": 0.0, "unit": m["unit"]}
            filled.append(m["name"])
        elif got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']} is in {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    known = {m["name"] for m in spec_metrics}
    for name in measured:
        if name not in known:
            failures.append(f"metric {name} is not in BENCHMARK.json")
    return out, filled


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny request lists, one pass (self-tests)")
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    out = ensure_build()
    if out is None:
        return 1
    res = run_workload(out, args)
    if res is None:
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    failures = list(res["failures"])
    metrics, not_reached = order_metrics(spec[section], res["metrics"],
                                         fill_missing=bool(args.trace),
                                         failures=failures)
    correct = bool(res["correct"]) and not failures

    print(f"fingerprint: cpu={cpu_model()!r} nproc={os.cpu_count()} "
          f"compiler={res['compiler']!r} build={res['build_type']} "
          f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"fingerprint: schedule={res['schedule_fingerprint']} "
          f"work={res['work_fingerprint']}")
    for name, d in res["diagnostics"].items():
        print(f"diagnostic: {name} = {d['value']:.6g} {d['unit']}")
    if not_reached:
        print("diagnostic: layers not exercised by this workload (reported "
              "as 0): " + ", ".join(not_reached))
    if res["trace_file"]:
        print(f"trace: {res['trace_file']}")
    for f in failures:
        print(f"GATE FAILED: {f}")
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
