"""Benchmark of mspsolve: audited time-to-solution on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload psd-outliers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 2

The program under test is imported from ``src/`` of the same checkout.  With
``--trace 0`` the last line of standard output is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics from a traced run.  The lines before it are a readable
table, including the audit's ``failed_frac`` and ``false_status_frac`` and
the environment.  A full record (and, traced, every span) is written under
``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# NumPy is imported only after main() has pinned these.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA_VERSION = 1
WORKLOAD_NAMES = ("psd-outliers", "normal-ridge", "krr-smooth")
# End-to-end metrics that are printed and recorded but not in BENCHMARK.json:
# the audit fractions are normally 0, and plain Lanczos on psd-outliers is
# bound by memory bandwidth, so baseline_s swings with the neighbours' load
# (run medians spread by 0.25 in one set of ten).
UNGATED = {"baseline_s": "s", "failed_frac": "ratio", "false_status_frac": "ratio"}


def import_program() -> None:
    """Put the checkout's src/ first on sys.path; fail if the program is absent."""
    if not (ROOT / "src" / "mspsolve" / "__init__.py").is_file():
        raise SystemExit(f"mspsolve sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mspsolve

    if Path(mspsolve.__file__).resolve().parent != ROOT / "src" / "mspsolve":
        raise SystemExit(f"imported mspsolve from {mspsolve.__file__}, not from this checkout")


def _git_revision() -> str:
    """Commit of the checkout, read from .git without running git; else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "schema": SCHEMA_VERSION,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_revision": _git_revision(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _solve_percentile(times):
    """Highest listed percentile with at least ten samples beyond it, or None.

    The median is printed as solve_s itself, so it is not a candidate here.
    """
    import numpy as np

    for p in (99, 95, 90, 75):
        if len(times) * (1 - p / 100) >= 10:
            return p, float(np.percentile(times, p))
    return None


def report(workload: str, seed: int, seconds: int, trace: bool, result: dict,
           spec: dict, env: dict) -> dict:
    """Print the readable table and return the final JSON object."""
    e2e = result["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | UNGATED
    print(f"# workload {workload}  seed {seed}  instance seed {result['instance_seed']}  "
          f"seconds {seconds}  trace {int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# audit: attempted {result['attempted']}  failed {result['failed']}  "
          f"false status {result['false_status']}  baseline failed "
          f"{result['baseline_failed']} of {len(result['baseline_times'])}, wrong "
          f"{result['baseline_wrong']}  max error {result['max_error']:.3e}  "
          f"max baseline error {result['max_baseline_error']:.3e}  "
          f"statuses {result['statuses']}")
    for name, value in e2e.items():
        print(f"{name:<34} {value:>14.6g} {units[name]}")
    pct = _solve_percentile(result["solve_times"])
    print(f"{'solve_s.samples':<34} {len(result['solve_times']):>14d} count")
    if pct is None:
        print("# solve_s: no percentile above the median has 10 samples beyond it")
    else:
        print(f"{f'solve_s.p{pct[0]}':<34} {pct[1]:>14.6g} s")
    if trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in result["layers"].items():
            print(f"{name:<34} {value:>14.6g} {layer_units[name]}")
        chosen, source = spec["per_layer"], result["layers"]
    else:
        chosen, source = spec["end_to_end"], e2e
    return {
        "correct": result["failed"] == 0 and result["baseline_wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in chosen},
    }


def _write_record(workload, seed, trace, env, result, final) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = result.pop("spans", None)
    record = {"workload": workload, "seed": seed, "env": env, "result": result,
              "final": final}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


def run_one(args) -> int:
    import_program()
    import workloads

    spec = load_spec()
    env = environment()
    instance_seed = (workloads.INSTANCE_SEED if args.instance_seed is None
                     else args.instance_seed)
    problem = workloads.WORKLOADS[args.workload](args.seed, args.size, instance_seed)
    result = workloads.run(problem, args.seconds, bool(args.trace))
    result["instance_seed"] = instance_seed
    final = report(args.workload, args.seed, args.seconds, bool(args.trace), result,
                   spec, env)
    _write_record(args.workload, args.seed, args.trace, env, result, final)
    print(json.dumps(final))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.instance_seed is not None:
            cmd += ["--instance-seed", str(args.instance_seed)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    if "numpy" in sys.modules:
        raise SystemExit("NumPy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1, help="seed of the right-hand sides")
    ap.add_argument("--instance-seed", type=int, default=None,
                    help="seed of the instance; rerun a claim with a second one")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny instances are for the self-tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
