#!/usr/bin/env python3
"""Builds and runs the streamcover end-to-end benchmark.

    python3 perfbench/run.py --workload iter_disk|sieve_disk|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset; later runs only rebuild what changed. Build output goes
to stderr. The driver's standard output is passed through; its last
line is the result object, checked here against the metric catalog in
BENCHMARK.json. The exit code is the driver's (non-zero on any failed
check), or 1 if the build or that catalog check fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the driver; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("run.py: no streamcover sources next to perfbench/", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return out / "perfbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (a revision id
    that also exists in checkouts without git metadata)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += [p for p in tree.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def catalog_mismatch(line, trace):
    """Names the difference between the result's metrics and the ones
    BENCHMARK.json declares for this mode; None when they agree."""
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        return None
    manifest = json.loads(manifest_path.read_text())
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    measured = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared != measured:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(measured.items()) ^ set(declared.items()))
    return None


def main(argv):
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ,
               PERFBENCH_GIT_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    args = list(argv)
    if "--out-dir" not in args:
        args += ["--out-dir", str(out / "out")]
    try:
        run = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                             text=True, env=env, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.stdout.write(run.stdout)
        return run.returncode
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    mismatch = catalog_mismatch(lines[-1], trace) if lines else "no output"
    if mismatch:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: " + mismatch, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
