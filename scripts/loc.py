#!/usr/bin/env python3
"""Line count: non-blank lines of the workspace's Rust code and manifests.

Usage: loc.py [REPO]

Counts the git-tracked `.rs` and `Cargo.toml` files under `crates/`,
`examples/` and `src/`, plus the root `Cargo.toml`, of REPO (default: the
repository holding this script). Prints two numbers:

- shipped: a `.rs` file stops counting at its first `#[cfg(test)]` line;
- with tests: every line of those files, plus the root `tests/`.

`vendor/` and `benchmark/` are never counted.
"""

import os
import subprocess
import sys

SHIPPED_DIRS = ("crates/", "examples/", "src/")
TEST_DIRS = ("tests/",)


def tracked(repo):
    out = subprocess.run(
        ["git", "-C", repo, "ls-files"], check=True, capture_output=True, text=True
    ).stdout
    return out.splitlines()


def counted(path):
    return path.endswith(".rs") or os.path.basename(path) == "Cargo.toml"


def non_blank(repo, path, stop_at_tests):
    n = 0
    with open(os.path.join(repo, path), encoding="utf-8") as f:
        for line in f:
            if stop_at_tests and line.strip().startswith("#[cfg(test)]"):
                break
            n += bool(line.strip())
    return n


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    repo = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(here)
    shipped = with_tests = 0
    for path in tracked(repo):
        if not counted(path):
            continue
        if path == "Cargo.toml" or path.startswith(SHIPPED_DIRS):
            shipped += non_blank(repo, path, path.endswith(".rs"))
            with_tests += non_blank(repo, path, False)
        elif path.startswith(TEST_DIRS):
            with_tests += non_blank(repo, path, False)
    print(f"shipped    {shipped}")
    print(f"with tests {with_tests}")


if __name__ == "__main__":
    main()
