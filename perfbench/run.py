#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hotpath --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and traced runs' spans and CPU profiles go
to $CARGO_TARGET_DIR (default .bench_build) under the current directory,
so the run writes nothing outside the checkout. The last line of standard
output is the result object; build output goes to standard error. Exits
non-zero without a result when the simulator's sources are missing or do
not build.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "go.mod").is_file():
        print(f"perfbench: no simulator sources at {root} (go.mod missing)", file=sys.stderr)
        return 2

    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = Path.cwd() / out
    home = out / "home"
    home.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=str(out / "gocache"),
        GOPATH=str(out / "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        HOME=str(home),
        XDG_CONFIG_HOME=str(home / ".config"),
    )
    binary = out / "perfbench"
    build = subprocess.run(
        ["go", "build", "-o", str(binary), "."],
        cwd=bench_dir, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    run = subprocess.run(
        [str(binary), "--artifacts", str(out / "trace"), *sys.argv[1:]],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
