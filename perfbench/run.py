#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (with the DART library) from
source, runs one measured run and prints the result line.

    python3 perfbench/run.py --workload apps|ycsb --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build tree goes to $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Exact outputs (checksums, simulated IPC and F1, SimStats) are compared with
perfbench/pins.json for the seeds it lists; `--pin` records them instead.
`--corrupt PHASE` damages one output of a phase (for the tests).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return bdir / "perfbench"


def parse_protocol(text):
    """Reads the metric / exact / ops lines the measuring program prints."""
    metrics, exact, ops = {}, {}, {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "exact" and len(parts) == 3:
            exact[parts[1]] = parts[2]
        elif parts[0] == "ops" and len(parts) == 4:
            ops[parts[1]] = (int(parts[2]), int(parts[3]))
    return metrics, exact, ops


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def check_pins(workload, seed, exact):
    """Returns (pinned?, mismatching keys)."""
    pins = load_pins().get(workload, {}).get(str(seed))
    if pins is None:
        return False, []
    bad = [k for k, v in pins.items() if exact.get(k) != v]
    bad += [k for k in exact if k not in pins]
    return True, bad


def record_pins(workload, seed, exact):
    pins = load_pins()
    pins.setdefault(workload, {})[str(seed)] = dict(sorted(exact.items()))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["apps", "ycsb"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt", choices=["query", "serve", "cell", "replay"])
    ap.add_argument("--pin", action="store_true",
                    help="record this seed's exact outputs in pins.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    out_dir = bdir / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # The program's DART_* knobs must not leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DART_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          env=env, timeout=RUN_TIMEOUT_S, cwd=str(out_dir))
    if proc.returncode != 0:
        log(f"perfbench exited with code {proc.returncode}")
        return 1
    metrics, exact, ops = parse_protocol(proc.stdout)
    for line in proc.stdout.splitlines():
        if line.startswith("note "):
            print(line[len("note "):])

    attempted = sum(a for a, _ in ops.values())
    failed = sum(f for _, f in ops.values())
    for phase, (a, f) in sorted(ops.items()):
        print(f"ops {phase}: attempted {a} failed {f}")
    if args.pin:
        record_pins(args.workload, args.seed, exact)
        print(f"pins recorded for {args.workload} seed {args.seed}")
    pinned, bad = check_pins(args.workload, args.seed, exact)
    for key in bad:
        print(f"pin mismatch: {key} = {exact.get(key)}")
    failed += len(bad)
    if pinned:
        attempted += len(exact)
    print(f"pins: {'checked' if pinned else 'none for this seed'}, "
          f"{len(bad)} mismatches")
    print(f"fail_ratio {failed / max(1, attempted):.6g} ({failed} of {attempted})")

    result = {}
    for m in wanted:
        name = m["name"]
        if name not in metrics:
            log(f"metric {name} was not measured")
            return 1
        value, unit = metrics[name]
        if unit != m["unit"]:
            log(f"metric {name}: unit {unit}, BENCHMARK.json says {m['unit']}")
            return 1
        print(f"{name} = {value:.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
