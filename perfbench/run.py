#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the binary with the same arguments.
The binary's last stdout line is the JSON result; build output goes to
stderr. The environment's `PDC_*` variables are removed, so the runtime
runs with its defaults (no tuning file, default eager threshold). Exits
non-zero without a result if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDC_")}
    env["CARGO_TARGET_DIR"] = target
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
