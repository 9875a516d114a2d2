#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the repository root:

    python3 perf/run.py --workload <paper_roster|ooc_csr|grow_checkpoint> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perf/` (its own Cargo package) in release mode into
`$CARGO_TARGET_DIR` (default `perf/target`), then runs the binary with
every `IVMF_*` variable removed, so the library runs with its defaults (the binary itself pins the
CSR workloads to one compute thread).
Files the run writes to disk go to a per-process directory under
`.bench_tmp/`, removed when the run ends however it ends. The binary's
stdout passes through; its last line is the JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
# Upper bound on one run after the build; the slowest traced run takes
# about 55 s on a 2-core x86-64 machine.
RUN_TIMEOUT_S = 170


def stop(signum, _frame):
    # Turn SIGTERM/SIGINT into an exception, so the child is killed and
    # the work directory removed on the way out.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    env = {k: v for k, v in os.environ.items() if not k.startswith("IVMF_")}
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perf/run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "ivmf-perf")
    workdir = os.path.join(".bench_tmp", str(os.getpid()))
    started = time.monotonic()
    # A process group of its own, so a kill also reaches the binary's own
    # measurement children.
    child = subprocess.Popen(
        [exe, *sys.argv[1:], "--workdir", workdir], env=env, start_new_session=True
    )
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(
            f"perf/run.py: run killed after {time.monotonic() - started:.0f} s",
            file=sys.stderr,
        )
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
