"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,decode} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. It imports ``concept_parse`` from ``src/``
and exits with code 2, printing no result, when that package is not there.
BLAS is pinned to one thread before numpy is imported, and the process pins
itself to one CPU. A human-readable report comes first; the last line of
standard output is the JSON result. The full record, with the environment,
output checks and sample counts, is written to ``.perfbench_out/``, and a
traced run also writes its spans there.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train", "decode")


def git_rev(root: Path):
    """The checked-out commit, or None outside a git tree or without git."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(*dirs: Path) -> str:
    """SHA-256 over the Python sources under ``dirs``; identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def pin_one_cpu():
    """Keep the process on one CPU so that migrations do not add noise."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed[0], len(allowed)


def print_report(record: dict) -> None:
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for key, metric in [*record["metrics"].items(), *record.get("also", {}).items()]:
        label = metric.get("name", key)
        alias = f" ({key})" if label != key else ""
        count = f"  n={metric['n']}" if "n" in metric else ""
        print(f"  {label}{alias} = {metric['value']:.6g} {metric['unit']}{count}")
    if "counts" in record:
        counts = record["counts"]
        print(f"counts per pass: nodes {counts['nodes']}  beams {len(counts['beams'])}"
              f"  calls {json.dumps(counts['calls'], sort_keys=True)}")
    print("outputs " + json.dumps(record["outputs"], sort_keys=True))
    print("checks " + "  ".join(f"{k} {'ok' if v else 'FAILED'}"
                                for k, v in record["checks"].items()))
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {str(record['correct']).lower()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "concept_parse" / "model.py").is_file():
        print(f"error: no concept_parse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu, nproc = pin_one_cpu()

    import numpy
    import workloads

    # the outputs depend on the benchmark's own code as well
    source = source_digest(SRC, ROOT / "perfbench")
    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "nproc": nproc, "pinned_cpu": cpu,
        "git_rev": git_rev(ROOT), "source_sha256": source, "seed": args.seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    # float results also depend on the numpy build and the CPU architecture
    program = " ".join(str(env[k]) for k in ("source_sha256", "numpy", "python",
                                              "machine"))
    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           OUT, program)
    record["env"] = env
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True),
                            encoding="utf-8")
    print_report(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
