"""One measured repetition of a benchmark workload, in a fresh interpreter.

``perfbench/run.py`` starts this script once per repetition, so the
process-wide family cache and the result store start empty every time, and
interpreter start, imports and store pre-fill are paid again (they are the
benchmark's set-up time).  The repetition

1. sets up (imports, temporary store, pre-fill and daemon for the service);
2. stamps ``t_ready`` and runs the workload's timed phases, each with a
   host-speed probe (``perfbench/speed.py``);
3. checks the outputs, outside the timed phases;
4. prints one JSON object as its last line of standard output, with every
   timing both as measured and scaled to the reference host's speed.

With ``--trace 1`` the tracing shim (``perfbench/shim.py``) is installed
during set-up — in the service daemon for ``service-mixed`` — and the
repetition also reports the per-layer aggregates.

Usage (from the root of a checkout)::

    python3 perfbench/rep.py --workload paper-quick --seed 0 --index 0 \\
        --trace 0 --tmp .perfbench/tmp/rep0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from shim import Tracer, installed, merge_spool  # noqa: E402
from speed import PROBE_REF_S, Sampler, calibration_s  # noqa: E402

#: Seed whose outputs ``expected.json`` pins by digest.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Size:
    """Input sizes of every workload; ``tiny`` is the self-test size."""

    experiments: Optional[Tuple[str, ...]]
    sweep_protocols: Tuple[str, ...]
    sweep_n: int
    sweep_k: Tuple[int, ...]
    sweep_workloads: Tuple[str, ...]
    sweep_batch: int
    sweep_warm_repeats: int
    prefill_protocols: Tuple[str, ...]
    prefill_n: Tuple[int, ...]
    prefill_k: Tuple[int, ...]
    prefill_batch: Tuple[int, ...]
    prefill_seeds: int
    queries: int
    sampled_bodies: int


SIZES = {
    "full": Size(
        experiments=None,
        sweep_protocols=("scenario-b", "scenario-c", "rpd", "beb"),
        sweep_n=1024,
        sweep_k=(16, 64),
        sweep_workloads=("uniform", "staggered"),
        sweep_batch=768,
        sweep_warm_repeats=90,
        prefill_protocols=("scenario-b", "scenario-c", "rpd", "beb"),
        prefill_n=(64, 256),
        prefill_k=(4, 16),
        prefill_batch=(16, 128),
        prefill_seeds=8,
        queries=3000,
        sampled_bodies=3,
    ),
    "tiny": Size(
        experiments=("E2",),
        sweep_protocols=("scenario-b", "rpd"),
        sweep_n=64,
        sweep_k=(4,),
        sweep_workloads=("uniform",),
        sweep_batch=16,
        sweep_warm_repeats=2,
        prefill_protocols=("scenario-b",),
        prefill_n=(64,),
        prefill_k=(4,),
        prefill_batch=(8, 32),
        prefill_seeds=2,
        queries=40,
        sampled_bodies=1,
    ),
}

#: Protocol, (n, k) and batch of the service's cold queries; each gets a
#: fresh seed, so each is computed in the daemon's pool.
MISS_QUERY = {"protocol": "scenario-b", "n": 256, "k": 16, "batch": 64}

#: Queries between two host-speed calibrations of the service loop.
QUERY_CHUNK = 150

#: Probe samples per CPU of the calibrations around a parallel sweep (three
#: per repetition, so long and precise) and around a chunk of service
#: queries (twenty-one per repetition, so short).
PAR_BRACKET = 60
LOOP_BRACKET = 20


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Rep:
    """Timings, failures and outputs of one repetition."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.index = args.index
        self.size = SIZES[args.size]
        self.tmp = Path(args.tmp)
        self.tracer = Tracer() if args.trace else None
        self.t_ready: Optional[float] = None
        #: Seconds per timed operation, by kind (``cold``, ``warm``, ``par``),
        #: probe time taken out.
        self.samples: Dict[str, List[float]] = {}
        #: The same, scaled to the reference host's speed.
        self.scaled: Dict[str, List[float]] = {}
        #: Probe seconds of every timed phase, in order.
        self.probes: List[float] = []
        #: Probe seconds of a calibration no phase has run since.
        self._fresh: Optional[float] = None
        #: The sampler of the phase now running, if it samples.
        self._sampler: Optional[Sampler] = None
        #: Operations of the phase now running, scaled when it ends.
        self._pending: List[Tuple[str, float]] = []
        #: Probes set-up, from here to :meth:`ready`.
        self._setup = Sampler().__enter__()
        self.setup_spent = 0.0
        self.setup_probe = PROBE_REF_S
        #: Work items per second of the workload's throughput phase.
        self.throughput = 0.0
        #: Total seconds of the timed phases.
        self.measured_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.digest: Optional[str] = None
        self.extra: Dict[str, float] = {}

    def ready(self) -> None:
        """End of set-up."""
        self.t_ready = time.time()
        self._setup.__exit__(None, None, None)
        self.setup_spent = self._setup.spent
        self.setup_probe = self._setup.probe_s()

    def _spent(self) -> float:
        return self._sampler.spent if self._sampler is not None else 0.0

    def _calibration(self, samples: int) -> float:
        """Probe seconds over every usable CPU, reusing one no phase has run since."""
        if self._fresh is None:
            self._fresh = calibration_s(sorted(os.sched_getaffinity(0)), samples)
        return self._fresh

    @contextlib.contextmanager
    def timed(self, kind: Optional[str], bracket: int = 0):
        """Time a phase, as one sample of ``kind`` unless it is ``None``.

        With ``bracket`` 0 the phase is probed from inside (untraced
        repetitions only, so the probe lands in no span).  A phase that runs
        in several processes is bracketed instead by calibrations of every
        usable CPU, ``bracket`` probe samples per CPU.
        """
        if bracket:
            before = self._calibration(bracket)
        elif self.tracer is None:
            self._sampler = Sampler()
        self._fresh = None
        with self._sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            yield
            seconds = time.perf_counter() - t0 - self._spent()
        if bracket:
            probe = (before + self._calibration(bracket)) / 2
        elif self._sampler is not None:
            probe = self._sampler.probe_s()
        else:
            probe = PROBE_REF_S
        self._sampler = None
        self.probes.append(probe)
        self.measured_s += seconds
        if kind is not None:
            self._pending.append((kind, seconds))
        for name, value in self._pending:
            self.samples.setdefault(name, []).append(value)
            self.scaled.setdefault(name, []).append(value * PROBE_REF_S / probe)
        self._pending = []

    @contextlib.contextmanager
    def op(self, kind: str):
        """Time one operation of the running phase as a sample of ``kind``."""
        spent = self._spent()
        t0 = time.perf_counter()
        yield
        self._pending.append((kind, time.perf_counter() - t0 - (self._spent() - spent)))

    def operation(self, failures: List[str]) -> None:
        """Count one checked operation; it failed if ``failures`` is not empty."""
        self.attempted += 1
        if failures:
            self.failures.append("; ".join(failures))

    def check_digest(self, workload: str, digest: str, applies: bool) -> List[str]:
        self.digest = digest
        expected = json.loads((HERE / "expected.json").read_text())
        want = expected.get(workload)
        if applies and want is not None and digest != want:
            return [f"output digest {digest} != expected {want}"]
        return []


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else part.encode("utf-8"))
    return digest.hexdigest()


def _records_digest(records) -> str:
    """Digest of records in their canonical on-disk form, order-independent."""
    blobs = sorted(json.dumps(r.as_dict(), sort_keys=True) for r in records)
    return _sha256(blobs)


@contextlib.contextmanager
def _installed(rep: Rep):
    """The tracing shim around the timed phases, when this repetition traces."""
    if rep.tracer is None:
        yield
        return
    spool = rep.tmp / "spool"
    with installed(rep.tracer, spool):
        yield
    merge_spool(rep.tracer, spool)


# -- workloads ------------------------------------------------------------------


def paper_quick(rep: Rep) -> None:
    """The E1–E11 QUICK campaign, serial: cold on an empty store, then warm."""
    from repro.experiments import QUICK, PaperCampaign, dedup_specs
    from repro.sweeps import SweepStore

    size = rep.size
    store = SweepStore(rep.tmp / "store")
    campaign = PaperCampaign(
        scale=QUICK, store=store, workers=0, experiments=size.experiments
    )
    with _installed(rep):
        rep.ready()
        with rep.timed("cold"):
            cold = campaign.run()
        with rep.timed("warm"):
            warm = campaign.run()

    unique = cold.manifest["specs_unique"]
    rep.throughput = unique / rep.scaled["cold"][0]

    def rows(result) -> str:
        return json.dumps(
            {key: r.rows for key, r in result.results.items()},
            sort_keys=True,
            default=str,
        )

    problems = []
    if not cold.all_certificates_hold:
        problems.append("cold campaign: a certificate does not hold")
    if cold.manifest["store_misses"] != unique:
        problems.append(f"cold campaign: {cold.manifest['store_misses']} misses != {unique}")
    specs = dedup_specs([spec for specs in campaign.plan().values() for spec in specs])
    records = [store.load(spec) for spec in specs]
    if len(specs) != unique or None in records:
        problems.append("the store does not hold a record for every planned spec")
        records = [r for r in records if r is not None]
    # The paper's plan is fixed, so its digest applies at every seed.
    problems += rep.check_digest(
        "paper-quick", _records_digest(records), size.experiments is None
    )
    rep.operation(problems)
    problems = []
    if not warm.all_certificates_hold:
        problems.append("warm campaign: a certificate does not hold")
    if warm.manifest["store_misses"] != 0:
        problems.append(f"warm campaign: {warm.manifest['store_misses']} misses")
    if rows(warm) != rows(cold):
        problems.append("warm campaign rows differ from cold rows")
    rep.operation(problems)


def sweep_large_batch(rep: Rep) -> None:
    """A 16-config large-batch grid: parallel, then serial, then warm reruns."""
    from repro.sweeps import SweepRunner, SweepSpec, SweepStore

    size = rep.size
    spec = SweepSpec(
        protocols=size.sweep_protocols,
        n_values=(size.sweep_n,),
        k_values=size.sweep_k,
        workloads=size.sweep_workloads,
        seeds=(rep.seed,),
        batch=size.sweep_batch,
    )
    patterns = len(spec.configs()) * size.sweep_batch
    workers = max(2, nproc())
    serial_store = SweepStore(rep.tmp / "serial")
    # Parallel first: workers fork from this process, and must not inherit a
    # family cache that the serial phase filled.
    with _installed(rep):
        rep.ready()
        # Two parallel samples: which worker draws the last long job, and
        # so the phase's length, varies from one to the next.
        parallel = []
        for i in range(2):
            with rep.timed("par", bracket=PAR_BRACKET):
                store = SweepStore(rep.tmp / f"par{i}")
                parallel.append(SweepRunner(workers=workers, store=store).run(spec))
        with rep.timed("cold"):
            serial = SweepRunner(workers=0, store=serial_store).run(spec)
        reruns = []
        with rep.timed(None):
            for _ in range(size.sweep_warm_repeats):
                with rep.op("warm"):
                    reruns.append(SweepRunner(workers=0, store=serial_store).run(spec))

    rep.throughput = patterns / statistics.median(rep.scaled["par"])
    rep.extra.update(patterns=patterns, workers=workers)
    serial_dicts = [r.as_dict() for r in serial.records]

    problems = []
    for record in serial.records:
        stored = serial_store.load(record.config)
        if stored is None or stored.as_dict() != record.as_dict():
            problems.append(f"{record.config.label()}: record does not round-trip")
    problems += rep.check_digest(
        "sweep-large-batch",
        _records_digest(serial.records),
        rep.seed == DEFAULT_SEED and size is SIZES["full"],
    )
    rep.operation(problems)
    for run in parallel:
        rep.operation(
            []
            if [r.as_dict() for r in run.records] == serial_dicts
            else [f"records at workers={workers} differ from workers=0"]
        )
    for rerun in reruns:
        problems = []
        if rerun.reused != len(serial_dicts):
            problems.append(f"warm rerun reused {rerun.reused} of {len(serial_dicts)}")
        if [r.as_dict() for r in rerun.records] != serial_dicts:
            problems.append("warm rerun records differ")
        rep.operation(problems)


def _prefill_configs(size: Size):
    from repro.sweeps import SweepConfig

    return [
        SweepConfig(protocol=p, n=n, k=k, batch=b, seed=s)
        for p in size.prefill_protocols
        for n in size.prefill_n
        for k in size.prefill_k
        for b in size.prefill_batch
        for s in range(size.prefill_seeds)
    ]


def _query_plan(rep: Rep, prefill) -> List[Tuple[object, str]]:
    """``(config, expected cache status)`` per query, drawn from the seed."""
    import numpy as np

    from repro.sweeps import SweepConfig

    queries = rep.size.queries
    rng = np.random.default_rng([rep.seed, rep.index])
    n_miss = max(1, queries // 100)
    miss_at = set(rng.choice(queries, size=n_miss, replace=False).tolist())
    # Fresh seeds, far from the pre-filled ones: every miss is computed.
    first_seed = int(rng.integers(10**6, 2**31 - n_miss))
    misses = iter(
        SweepConfig(seed=first_seed + i, **MISS_QUERY) for i in range(n_miss)
    )
    hits = rng.integers(0, len(prefill), size=queries)
    return [
        (next(misses), "miss") if i in miss_at else (prefill[hits[i]], "hit")
        for i in range(queries)
    ]


def _start_daemon(rep: Rep, store_root: Path) -> Tuple[subprocess.Popen, str]:
    """Start the service daemon on an OS-assigned port; returns its endpoint."""
    if rep.tracer is None:
        argv = [sys.executable, "-m", "repro", "service", "start"]
        argv += ["--port", "0", "--workers", "1"]
    else:
        argv = [
            sys.executable,
            str(HERE / "daemon.py"),
            "--totals", str(rep.tmp / "daemon.json"),
            "--spool", str(rep.tmp / "spool"),
        ]
    argv += ["--store", str(store_root)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"service daemon did not start: {line!r}")
    return proc, match.group(1)


def service_mixed(rep: Rep) -> None:
    """A closed loop of one client against the daemon: 99% hits, 1% misses."""
    from repro.service import QueryError, ServiceClient, render_response
    from repro.sweeps import SweepRunner, SweepStore, resolve_config

    size = rep.size
    store = SweepStore(rep.tmp / "store")
    prefill = _prefill_configs(size)
    # In-process, so the only children whose peak RSS counts are the daemon
    # and its pool worker.
    records = SweepRunner(workers=0, store=store).run(prefill).records
    expected_body = {r.config.config_hash(): render_response(r) for r in records}
    plan = _query_plan(rep, prefill)
    daemon, endpoint = _start_daemon(rep, store.root)
    client = ServiceClient(endpoint, timeout=60.0)
    replies: List[Tuple[Optional[bytes], str]] = []
    try:
        rep.ready()
        for start in range(0, len(plan), QUERY_CHUNK):
            # Bracketed, not probed from inside: the client wakes the daemon
            # and shares a CPU with it, which slows its probe.
            with rep.timed("loop", bracket=LOOP_BRACKET):
                for config, want in plan[start : start + QUERY_CHUNK]:
                    with rep.op("warm" if want == "hit" else "cold"):
                        try:
                            body, cache = client.query_raw(config.as_dict())
                        except (QueryError, OSError) as exc:
                            body, cache = None, f"error: {exc}"
                    replies.append((body, cache))
        client.stop()
        daemon.communicate(timeout=60)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()

    rep.throughput = len(plan) / sum(rep.scaled["loop"])
    rep.extra.update(
        loop_s=sum(rep.samples["loop"]),
        hit_rtt_s=sum(rep.samples["warm"]),
        rtt_s=sum(rep.samples["warm"]) + sum(rep.samples["cold"]),
    )
    if rep.tracer is not None:
        # The service's layers ran in the daemon and its pool worker.
        rep.tracer = Tracer.from_snapshot(json.loads((rep.tmp / "daemon.json").read_text()))

    # Every hit must be the pre-filled record's canonical body; a seeded
    # sample of hits and misses must equal a fresh direct resolution.
    sampled = set()
    for want in ("hit", "miss"):
        positions = [i for i, (_, w) in enumerate(plan) if w == want]
        sampled.update(positions[: size.sampled_bodies])
    bodies = []
    for i, ((config, want), (body, cache)) in enumerate(zip(plan, replies)):
        problems = []
        if cache != want:
            problems.append(f"query {i}: cache {cache!r}, expected {want!r}")
        elif want == "hit" and body.decode("utf-8") != expected_body[config.config_hash()]:
            problems.append(f"query {i}: hit body differs from the stored record")
        elif i in sampled and body.decode("utf-8") != render_response(resolve_config(config)):
            problems.append(f"query {i}: body differs from a direct resolution")
        if body is not None:
            bodies.append(body)
        rep.operation(problems)
    # Miss seeds are drawn per repetition, so only repetition 0 is pinned.
    digest_problems = rep.check_digest(
        "service-mixed",
        _sha256(sorted(bodies)),
        rep.seed == DEFAULT_SEED and rep.index == 0 and size is SIZES["full"],
    )
    if digest_problems:
        rep.failures += digest_problems
        rep.attempted += 1


WORKLOADS: Dict[str, Callable[[Rep], None]] = {
    "paper-quick": paper_quick,
    "sweep-large-batch": sweep_large_batch,
    "service-mixed": service_mixed,
}


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(rep: Rep) -> Dict[str, float]:
    """Per-layer figures of a traced repetition, by metric name.

    Times are self times (span minus child spans), summed over this process
    and its pool workers, except the ``service.*`` times, which are whole
    spans in the daemon.  ``*.share`` divides a self time by the work time:
    for service-mixed the query loop's wall time, which waits on every
    layer in turn; otherwise the measured wall time, less the waits on a
    pool, plus the self time that ran in pool workers.  Layers a workload
    does not reach read 0.
    """
    t = rep.tracer
    pool_wait = t.self_s("runner.pool_wait")
    attributed = sum(
        (e[2] for name, e in t.spans.items() if name != "runner.pool_wait"), 0.0
    )
    if "loop_s" in rep.extra:
        work = rep.extra["loop_s"]
        other = work - rep.extra["rtt_s"]
    else:
        work = rep.measured_s - pool_wait + t.count("workers.self_s")
        other = work - attributed

    def share(name: str) -> float:
        return t.self_s(name) / work if work > 0 else 0.0

    render = sum(
        (e[2] for name, e in t.spans.items() if name.startswith("experiments.render.")), 0.0
    )
    examined = t.count("engine.slots_examined")
    serial = rep.samples.get("cold", [0.0])[0]
    parallel = rep.samples.get("par", [0.0])[0]
    hit_rtt = rep.extra.get("hit_rtt_s", 0.0)
    front_door = hit_rtt - t.count("service.server_hit_s") if hit_rtt else 0.0
    return {
        "experiments.plan_s": t.self_s("experiments.plan"),
        "experiments.render_s": render,
        "experiments.render.E4_s": t.self_s("experiments.render.E4"),
        "protocols.calls": t.calls("protocols"),
        "protocols.self_s": t.self_s("protocols"),
        "protocols.share": share("protocols"),
        "family_cache.calls": t.calls("family_cache"),
        "family_cache.builds": t.count("family_cache.builds"),
        "family_cache.self_s": t.self_s("family_cache") + t.self_s("family_cache.build"),
        "workloads.patterns": t.count("workloads.patterns"),
        "workloads.self_s": t.self_s("workloads"),
        "workloads.share": share("workloads"),
        "engine.patterns": t.count("engine.patterns"),
        "engine.pairs": t.count("engine.pairs"),
        "engine.self_s": t.self_s("engine"),
        "engine.share": share("engine"),
        "engine.unsolved": t.count("engine.unsolved"),
        "engine.scan_efficiency": t.count("engine.useful_slots") / examined if examined else 0.0,
        "store.encode_s": t.self_s("store.encode"),
        "store.writes": t.count("store.writes"),
        "store.write_s": t.self_s("store.write"),
        "store.bytes_written": t.count("store.bytes_written"),
        "store.reads": t.count("store.reads"),
        "store.read_s": t.self_s("store.read"),
        "store.hits": t.count("store.hits"),
        "store.misses": t.count("store.misses"),
        "runner.self_s": t.self_s("runner"),
        "runner.pool_wait_s": pool_wait,
        "runner.par_efficiency": serial / parallel / rep.extra["workers"] if parallel else 0.0,
        "service.normalize_s": t.total_s("service.normalize"),
        "service.resolve_hit_s": t.total_s("service.resolve_hit"),
        "service.resolve_miss_s": t.total_s("service.resolve_miss"),
        "service.render_s": t.total_s("service.render"),
        "service.front_door_s": front_door,
        "service.front_door_share": front_door / hit_rtt if hit_rtt else 0.0,
        "other.self_s": other,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="repetition number")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="fresh directory for this repetition")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    rep = Rep(args)
    rep.tmp.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload](rep)

    import numpy

    from repro.engine.backend import get_backend

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "t_ready": rep.t_ready,
        "samples": rep.samples,
        "scaled": rep.scaled,
        "setup_spent": rep.setup_spent,
        "setup_scale": PROBE_REF_S / rep.setup_probe,
        "probes": rep.probes,
        "speed": PROBE_REF_S / statistics.median(rep.probes),
        "throughput": rep.throughput,
        "measured_s": rep.measured_s,
        "attempted": rep.attempted,
        "failures": rep.failures,
        "digest": rep.digest,
        "extra": rep.extra,
        # Peak RSS of this process plus the largest child it waited for
        # (a sweep pool worker, or the daemon or its pool worker); ru_maxrss
        # is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children)
        / 1024.0,
        "numpy": numpy.__version__,
        "backend": get_backend().name,
        "layers": layer_metrics(rep) if rep.tracer is not None else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
