#!/usr/bin/env python3
"""Layer-by-layer benchmark of the eigendeform offline build and online query path.

    python3 perfbench/run.py --workload rod-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run builds the workload's artifacts from its generator (offline), loads
them back (set-up), checks the outputs against references (the correctness
gate), runs the README-style CLI pipeline, and then drives a closed loop of
interleaved mode, direct and ROM queries for ``--seconds``.  With ``--trace 1``
the library is wrapped by tracer.Tracer and the last line carries the
per-layer metrics instead of the end-to-end ones.  The last stdout line is one
JSON object ``{correct, attempted, failed, metrics}``; the full report, with
the environment, tails and every check, goes to ``perfbench/out/``.
"""
import os

# Fixed before numpy loads: OpenBLAS's default of one thread per core made
# offline_s and ROM-query tails both slower and less repeatable on 2 cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# counts that must repeat exactly across runs and seeds of one workload
EXACT_COUNTS = (
    "edm.interpolate_columns.calls_per_query",
    "numerics.cholesky_factor.calls",
    "modal.right_block.calls",
    "modal.crossing_gaps",
)


def import_library() -> None:
    """Import eigendeform from this checkout's src/, never from an installed copy."""
    package = SRC / "eigendeform"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: library source not found at {package}")
    sys.path.insert(0, str(SRC))
    import eigendeform

    if Path(eigendeform.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported eigendeform from {eigendeform.__file__}, not {package}")


# -- smoke ---------------------------------------------------------------------

def smoke() -> int:
    """Every workload at tiny sizes: names and units against BENCHMARK.json, exact counts across seeds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (wl["name"] for wl in spec["workloads"]):
        counts = {}
        for trace, seed in ((0, 0), (1, 0), (1, 1)):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            tag = f"{workload} trace={trace} seed={seed}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if got != expected:
                problems.append(f"{tag}: metric names/units differ: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, "
                                f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} operations failed")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{tag}: non-finite metrics {bad}")
            if trace:
                counts[seed] = {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}
            print(f"ok {tag}" if not problems or not problems[-1].startswith(tag) else f"FAIL {tag}")
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ across seeds: {counts}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke: " + ("passed" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["rod-sweep", "chain-query", "wide-query"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="alone: check every workload at tiny sizes; with --workload: one tiny run")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    import_library()
    if args.workload is None:
        return smoke()
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
