"""End-to-end benchmark of ``repro paper run``, ``repro sweep run`` and ``repro service query``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-quick --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) on a fresh
temporary store, so no repetition inherits a warm family cache or store from
another.  Repetitions continue until the next one would overrun
``--seconds`` (at least three with ``--trace 0``).  Timings are pooled over
repetitions and reported as medians.  Every time, and every rate, is scaled to
the reference host's speed by a probe kernel timed with it (see
``perfbench/speed.py``); the figures as measured are printed next to them,
with the ``.raw`` suffix, together with the host's speed relative to the
reference (``host_speed``, higher is faster).

* ``--trace 0`` prints the end-to-end metrics listed in ``END_TO_END``.
* ``--trace 1`` runs untraced repetitions, then one repetition with the
  tracing shim (``perfbench/shim.py``), and prints the per-layer metrics of
  ``PER_LAYER`` plus the tracing overhead: the traced repetition's measured
  wall time minus the untraced median.

Human-readable lines (each metric by name with its unit and sample count,
the issue-level figures such as ``cold_s`` or ``hit_p99_ms``, and the run's
provenance) come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A copy of the results,
stamped with provenance, is written under ``.perfbench/results/``.
Outputs are checked in every repetition (see ``rep.py``); a failed check
counts its operation as failed and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from rep import nproc

HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper-quick", "sweep-large-batch", "service-mixed")

#: End-to-end metrics, reported by every ``--trace 0`` run: name -> unit.
#: ``cold`` operations compute and persist results the store does not hold;
#: ``warm`` ones are answered from the store.  Per workload:
#:
#: ==================  ====================  ======================  =====================
#: metric              paper-quick           sweep-large-batch       service-mixed
#: ==================  ====================  ======================  =====================
#: cold_ms             campaign, empty store serial sweep, empty st. miss query round trip
#: warm_ms             campaign, full store  sweep rerun, full store hit query round trip
#: throughput_per_s    specs/s of cold run   patterns/s, nproc wkrs  queries/s of the loop
#: ==================  ====================  ======================  =====================
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cold_ms": "ms",
    "warm_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, reported by every ``--trace 1`` run: name -> unit.
PER_LAYER: Dict[str, str] = {
    "experiments.plan_s": "s",
    "experiments.render_s": "s",
    "experiments.render.E4_s": "s",
    "protocols.calls": "count",
    "protocols.self_s": "s",
    "protocols.share": "ratio",
    "family_cache.calls": "count",
    "family_cache.builds": "count",
    "family_cache.self_s": "s",
    "workloads.patterns": "count",
    "workloads.self_s": "s",
    "workloads.share": "ratio",
    "engine.patterns": "count",
    "engine.pairs": "count",
    "engine.self_s": "s",
    "engine.share": "ratio",
    "engine.unsolved": "count",
    "engine.scan_efficiency": "ratio",
    "store.encode_s": "s",
    "store.writes": "count",
    "store.write_s": "s",
    "store.bytes_written": "bytes",
    "store.reads": "count",
    "store.read_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "runner.self_s": "s",
    "runner.pool_wait_s": "s",
    "runner.par_efficiency": "ratio",
    "service.normalize_s": "s",
    "service.resolve_hit_s": "s",
    "service.resolve_miss_s": "s",
    "service.render_s": "s",
    "service.front_door_s": "s",
    "service.front_door_share": "ratio",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

MIN_REPS = 3
#: A repetition that takes longer than this is killed and counted as failed.
REP_TIMEOUT_S = 100
#: No repetition starts that could end after this many seconds of the run.
RUN_LIMIT_S = 150


def child_env(root: Path, workdir: Path) -> Dict[str, str]:
    """The checkout's ``src`` first on the path; the program's tracing off."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_rep(
    root: Path,
    workdir: Path,
    env: Dict[str, str],
    workload: str,
    seed: int,
    index: int,
    trace: int,
    size: str,
) -> dict:
    """Run one repetition in a fresh interpreter; ``{"error": ...}`` on failure."""
    tmp = workdir / "tmp" / f"{workload}-{os.getpid()}-{index}-{trace}"
    shutil.rmtree(tmp, ignore_errors=True)
    argv = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--index", str(index),
        "--trace", str(trace),
        "--tmp", str(tmp),
        "--size", size,
    ]
    t_spawn = time.time()
    # A session of its own, so a timed-out repetition is killed together
    # with its daemon and pool workers.
    proc = subprocess.Popen(
        argv,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition {index} timed out after {REP_TIMEOUT_S}s"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"repetition {index} exited {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - t_spawn - result["setup_spent"]
    result["wall_s"] = time.time() - t_spawn
    return result


def run_reps(
    root: Path, workdir: Path, workload: str, seed: int, seconds: float, trace: int, size: str
) -> Tuple[List[dict], Optional[dict], List[str]]:
    """Untraced repetitions, plus one traced one when ``trace``."""
    env = child_env(root, workdir)
    reps: List[dict] = []
    errors: List[str] = []
    t0 = time.monotonic()
    min_reps = 1 if trace else MIN_REPS
    # Leave room for the traced repetition, about as long as an untraced one.
    reserve = 2 if trace else 1
    longest = 0.0
    while True:
        t_rep = time.monotonic()
        result = run_rep(root, workdir, env, workload, seed, len(reps) + len(errors), 0, size)
        longest = max(longest, time.monotonic() - t_rep)
        if "error" in result:
            errors.append(result["error"])
            if not reps:
                break
        else:
            reps.append(result)
        elapsed = time.monotonic() - t0
        enough = len(reps) >= min_reps or errors
        if enough and elapsed + reserve * longest > seconds:
            break
        if elapsed + reserve * longest > RUN_LIMIT_S:
            break
    traced = None
    if trace and reps:
        traced = run_rep(root, workdir, env, workload, seed, len(reps) + len(errors), 1, size)
        if "error" in traced:
            errors.append(traced["error"])
            traced = None
    return reps, traced, errors


def end_to_end(workload: str, reps: List[dict]) -> Tuple[Dict[str, float], List[tuple]]:
    """Contract metrics plus ``(name, value, unit, samples)`` report lines."""
    cold = [s for r in reps for s in r["scaled"].get("cold", [])]
    warm = [s for r in reps for s in r["scaled"].get("warm", [])]
    throughput = [r["throughput"] for r in reps]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in reps),
        "cold_ms": 1000 * statistics.median(cold),
        "warm_ms": 1000 * statistics.median(warm),
        "throughput_per_s": statistics.median(throughput),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    lines = [
        ("setup_s", metrics["setup_s"], "s", len(reps)),
        ("cold_ms", metrics["cold_ms"], "ms", len(cold)),
        ("warm_ms", metrics["warm_ms"], "ms", len(warm)),
        ("throughput_per_s", metrics["throughput_per_s"], "1/s", len(reps)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", len(reps)),
        ("host_speed", statistics.median(r["speed"] for r in reps), "ratio", len(reps)),
        ("setup_s.raw", statistics.median(r["setup_s"] for r in reps), "s", len(reps)),
    ]
    for kind in ("cold", "warm"):
        raw = [s for r in reps for s in r["samples"].get(kind, [])]
        lines.append((f"{kind}_ms.raw", 1000 * statistics.median(raw), "ms", len(raw)))
    if workload == "paper-quick":
        lines += [
            ("cold_s", metrics["cold_ms"] / 1000, "s", len(cold)),
            ("warm_s", metrics["warm_ms"] / 1000, "s", len(warm)),
        ]
    elif workload == "sweep-large-batch":
        patterns = reps[0]["extra"]["patterns"]
        lines += [
            ("patterns_per_s", patterns / statistics.median(cold), "patterns/s", len(cold)),
            ("par_patterns_per_s", metrics["throughput_per_s"], "patterns/s", len(reps)),
        ]
    else:
        lines += [
            ("hit_p50_ms", metrics["warm_ms"], "ms", len(warm)),
            ("hit_p99_ms", 1000 * statistics.quantiles(warm, n=100)[98], "ms", len(warm)),
            ("miss_p50_ms", metrics["cold_ms"], "ms", len(cold)),
            ("queries_per_s", metrics["throughput_per_s"], "q/s", len(reps)),
        ]
    return metrics, lines


def source_digest(root: Path) -> str:
    """sha256 over the program's source files (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(root: Path, seed: int, rep: dict) -> Dict[str, object]:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "host": platform.node(),
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": nproc(),
        "python": platform.python_version(),
        "numpy": rep["numpy"],
        "backend": rep["backend"],
        "seed": seed,
    }


def run_workload(
    root: Path, workdir: Path, workload: str, seed: int, seconds: float, trace: int, size: str
) -> Optional[dict]:
    """Run, check and report one workload; ``None`` if no repetition completed."""
    reps, traced, errors = run_reps(root, workdir, workload, seed, seconds, trace, size)
    if not reps:
        for error in errors:
            print(f"error: {workload}: {error}", file=sys.stderr)
        return None
    runs = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs) + len(errors)
    failures = [f for r in runs for f in r["failures"]] + errors
    failed = len(failures)

    if trace:
        if traced is None:
            for error in errors:
                print(f"error: {workload}: {error}", file=sys.stderr)
            return None
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["measured_s"]
        metrics["trace.overhead_s"] = traced["measured_s"] - statistics.median(
            r["measured_s"] for r in reps
        )
        units = PER_LAYER
        lines = [(name, metrics[name], units[name], 1) for name in units]
    else:
        metrics, lines = end_to_end(workload, reps)
        units = END_TO_END
    lines.append(("failed_frac", failed / attempted, "ratio", attempted))

    info = provenance(root, seed, reps[0])
    print(f"# {workload}: {len(reps)} untraced repetition(s), trace={trace}, size={size}")
    for key, value in info.items():
        print(f"#   {key}: {value}")
    print(f"#   output digest: {reps[0]['digest']}")
    for name, value, unit, samples in lines:
        print(f"{workload} {name} = {value:.6g} {unit} (n={samples})")
    for failure in failures[:10]:
        print(f"{workload} FAILED: {failure}")

    result = {
        "workload": workload,
        "provenance": info,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "report": [list(line) for line in lines],
        "repetitions": [
            {key: r[key] for key in ("setup_s", "wall_s", "throughput", "peak_rss_mb", "speed")}
            | {"samples_s": {kind: v for kind, v in r["samples"].items() if len(v) <= 100}}
            | {"probes_s": r["probes"]}
            for r in runs
        ],
        "failures": failures,
    }
    results_dir = workdir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload}-{size}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"# results written to {path.relative_to(root)}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the self-tests",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a checkout holding src/repro",
            file=sys.stderr,
        )
        return 2
    workdir = root / ".perfbench"
    # Byte-compile up front, so the first repetition's set-up does not pay it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        cwd=root,
        check=False,
        stdout=subprocess.DEVNULL,
    )

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(
            root, workdir, workload, args.seed, args.seconds, args.trace, args.size
        )
        if result is None:
            return 1
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in results
            for name, value in r["metrics"].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
