#!/usr/bin/env python3
"""Build and run the sweep-path benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
xr library plus the xr_perfbench binary (Release) into $CARGO_TARGET_DIR,
or .bench_build when it is unset; later calls only re-check the build.
Build output goes to stderr, so the JSON result stays the last line of
stdout. Scratch files live in .bench_work/ inside the checkout and
xr_perfbench removes them.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no library sources next to perfbench/ "
                 "(expected CMakeLists.txt and src/ at the checkout root)")
    # A build tree configured from another checkout path cannot be reused.
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in \
            cache.read_text(errors="replace"):
        cache.unlink()
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "xr_perfbench", "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir / "xr_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # xr_perfbench refuses an unknown workload name.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the reference output (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(build_dir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(ROOT / ".bench_work")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
