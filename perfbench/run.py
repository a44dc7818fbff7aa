#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds the `clonos-perfbench` package (release, offline,
into $CARGO_TARGET_DIR or `.bench_build`) and runs one workload. Its last
line of output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Results and trace files go to
`<target dir>/perfbench/`.

`--self-test` runs every workload of BENCHMARK.json on reduced inputs, timed
and traced, and checks that every metric BENCHMARK.json names prints with
its unit and that the oracle passes. Reduced runs publish no numbers.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def target_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_child(cmd, timeout, **kw):
    """Run `cmd` to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build() -> Path:
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--target-dir", str(target_dir()),
    ]
    code, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")
    return target_dir() / "release" / "clonos-perfbench"


def commit() -> str:
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def tree_digest() -> str:
    """SHA-256 over the sources the benchmark builds, for checkouts without
    git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            rel = p.relative_to(ROOT).parts
            if p.is_file() and "target" not in rel and p.suffix in (".rs", ".toml", ".py", ".lock"):
                files.append(p)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_bench(binary: Path, workload: str, seed: int, seconds: int, trace: int,
              reduced: bool = False) -> tuple[int, str]:
    env = dict(os.environ, PERFBENCH_COMMIT=commit(), PERFBENCH_TREE_DIGEST=tree_digest())
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(target_dir() / "perfbench")]
    if reduced:
        cmd.append("--reduced")
    return run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, env=env)


def parse_result(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def self_test(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(binary, wl["name"], seed=7, seconds=1, trace=trace, reduced=True)
            tag = f"{wl['name']} trace={trace}"
            before = len(problems)
            if code != 0:
                problems.append(f"{tag}: exit {code}")
                continue
            result = parse_result(out)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: oracle failed: {out.strip().splitlines()[-12:]}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            published = sorted(k for k, v in result["metrics"].items() if v["value"] is not None)
            if published:
                problems.append(f"{tag}: reduced run published values for {published}")
            if want != got:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in want if k in got and want[k] != got[k])}")
            printed = [l for l in out.splitlines() if l.startswith("metric ")]
            for name, unit in want.items():
                if f"metric {name} [{unit}]" not in "\n".join(printed):
                    problems.append(f"{tag}: metric {name} [{unit}] not printed")
            print(f"self-test {tag}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    code, out = run_bench(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        print(f"perfbench: benchmark exited with {code}", file=sys.stderr)
        return code
    try:
        parse_result(out)
    except ValueError as e:
        print(f"perfbench: malformed result: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
