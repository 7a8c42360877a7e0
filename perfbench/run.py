#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload mixed-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload pdf-deep --self-test

The first run configures and builds perfbench/ (which pulls in the
repository's own ipg_core) under the build directory: $CARGO_TARGET_DIR if
set, else .bench_build. Later runs rebuild incrementally. Generated parsers
are compiled under <build>/tmp, and the run's state (replay counter digests,
span logs) lives under <build>/state, so nothing is written outside the
checkout.

The last line of standard output is the benchmark's JSON result. Build logs
go to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, env):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_dir, env):
    bench_build = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bench_build,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", bench_build, "--target", "ipg_perfbench",
                "-j", jobs], env)
    exe = os.path.join(bench_build, "ipg_perfbench")
    if not os.path.isfile(exe):
        fail("build produced no ipg_perfbench")
    return exe


def build_id(exe):
    h = hashlib.sha256()
    with open(exe, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="run only the oracle self-test (planted faults)")
    args = ap.parse_args()

    # The benchmark builds the program from the checkout's sources.
    for need in ("CMakeLists.txt", os.path.join("src", "service")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no program sources next to the benchmark (missing %s)"
                 % need)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    state = os.path.join(build_dir, "state")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(state, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")

    exe = build(build_dir, env)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state-dir", state, "--build-id", build_id(exe)]
    if args.self_test:
        cmd.append("--self-test")

    # Own process group, so a timeout also stops the compilers the
    # generated-parser engine runs.
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
