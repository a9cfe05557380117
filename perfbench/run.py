#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds `sam-cli` (the repository workspace)
and `perfbench` (its own workspace under perfbench/) in release mode into
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark binary,
whose last line of output is the result object. Build output goes to
stderr. Exits non-zero, without a result, if either build fails.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")


def tree_id():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the program is built from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def sweep():
    """SIGKILL any process still running inside the scratch directory (the
    servers and routers the benchmark starts there), should the benchmark
    itself have been stopped before it could stop them."""
    work = os.path.realpath(WORK)
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cwd = os.path.realpath(os.readlink(f"/proc/{pid}/cwd"))
        except OSError:
            continue
        if cwd == work or cwd.startswith(work + os.sep):
            try:
                os.kill(int(pid), signal.SIGKILL)
            except OSError:
                pass


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "sam", "--bin", "sam-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        manifest = cmd[cmd.index("--manifest-path") + 1]
        if not os.path.isfile(manifest):
            print("run.py: missing " + manifest, file=sys.stderr)
            return 2
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    env["SAM_BENCH_COMMIT"] = tree_id()
    bench = os.path.join(target, "release", "perfbench")
    sam_cli = os.path.join(target, "release", "sam-cli")
    sys.stdout.flush()

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    child = subprocess.Popen([bench, "--sam-cli", sam_cli] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        sweep()
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
