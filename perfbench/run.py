"""Benchmark runner for the dB-tree simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload insert_burst --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

A run repeats *rounds* of one workload for about ``--seconds`` (it
stops at the round boundary nearest to it, after at least one
round).  A round builds a fresh cluster (and preloads it), runs the
timed phase, reads the public counters, and checks every output
against the oracle in ``inputs.py``.  Every round of one seed runs
the same inputs, so counts and virtual-time figures repeat exactly
and wall-clock figures are medians over rounds.

Every wall-clock figure is reported in *reference seconds*: around
each round's timed loops the runner times a fixed reference workload
(``calibrate.py``), whose time on this host against its time on the
reference host converts the round's wall seconds.  That removes the host's drifting speed and
keeps the program's.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds (see ``spans.py``) and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object; the lines before it name every
metric with its unit.  See ``NOTES.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("insert_burst", "read_mostly", "lossy_repair", "sharded_growth")

END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "msgs_per_op": "frames/op",
    "vops_per_kvt": "ops/kvt",
    "vlat_mean.insert": "vt",
}

#: Per-layer metrics read from the untraced round's ``virtual`` dict.
LAYER_COUNTS = {
    "sim.events.events_per_op": "events/op",
    "sim.events.pending_max": "count",
    "sim.processor.actions_per_op": "actions/op",
    "sim.processor.busy_max_share": "ratio",
    "sim.network.logical_per_op": "msgs/op",
    "sim.reliable.retransmits_per_op": "frames/op",
    "sim.reliable.acks_per_op": "frames/op",
    "sim.reliable.dropped_per_op": "frames/op",
    "sim.reliable.useful_frame_share": "ratio",
    "core.leafcache.stale_per_hit": "ratio",
    "core.leafcache.shortcut_per_hit": "ratio",
    "core.route.forwards_per_op": "hops/op",
    "protocols.half_splits_per_kop": "count/kop",
    "protocols.history_rewrites_per_kop": "count/kop",
    "protocols.discarded_relays_per_kop": "count/kop",
    "protocols.root_growths": "count",
    "repair.rounds_per_kop": "count/kop",
    "repair.clean_round_share": "ratio",
    "repair.digest_bytes_per_op": "B/op",
    "repair.repairs_total": "count",
    "shard.direct_route_share": "ratio",
    "shard.hint_hops": "count",
    "shard.splits": "count",
    "shard.keys_migrated_per_op": "keys/op",
    "vlat_p50.insert": "vt",
    "vlat_p99.insert": "vt",
    "vlat_p50.search": "vt",
    "vlat_p99.search": "vt",
    "vlat_p50.scan": "vt",
    "vlat_p99.scan": "vt",
    "vlat_p50.delete": "vt",
    "vlat_p99.delete": "vt",
    "vlat_n.insert": "count",
    "vlat_n.search": "count",
    "vlat_n.scan": "count",
    "vlat_n.delete": "count",
}

#: Per-layer metrics from the traced rounds: (span group, field, unit).
LAYER_SPANS = {
    "sim.events.self_s": ("sim.events", "self_s", "s"),
    "sim.processor.self_s": ("sim.processor", "self_s", "s"),
    "sim.network.self_s": ("sim.network", "self_s", "s"),
    "sim.network.calls": ("sim.network", "calls", "count"),
    "sim.reliable.self_s": ("sim.reliable", "self_s", "s"),
    "core.handle.self_s": ("core.handle", "self_s", "s"),
    "core.submit.self_s": ("core.submit", "self_s", "s"),
    "core.leafcache.self_s": ("core.leafcache", "self_s", "s"),
    "core.client.run.self_s": ("core.client.run", "self_s", "s"),
    "protocols.self_s": ("protocols", "self_s", "s"),
    "repair.shared_entries.self_s": ("repair.shared_entries", "self_s", "s"),
    "repair.gossip.self_s": ("repair.gossip", "self_s", "s"),
    "shard.entry_count.calls": ("shard.entry_count", "calls", "count"),
    "shard.entry_count.s": ("shard.entry_count", "total_s", "s"),
    "shard.submit.self_s": ("shard.submit", "self_s", "s"),
    "shard.run.self_s": ("shard.run", "self_s", "s"),
}

#: Seconds of a round's timed phase between two host-speed probes.
PROBE_EVERY_S = 0.2

#: The host's speed and the raw wall-clock figures it converts.
HOST = {
    "host.speed": "ref_s/s",
    "host.wall_ops_per_s": "ops/s",
    "host.wall_setup_s": "s",
}

OTHER_LAYER = {
    "repair.shared_entries.calls_per_op": "calls/op",
    "verify.check_s": "s",
    "op_failure_ratio": "ratio",
    "trace.overhead": "ratio",
    **HOST,
}


def _import_program() -> None:
    """Put the program's sources on the path; fail without them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _ops_per_s(rounds) -> float:
    """Median over rounds of completed ops per reference second."""
    return statistics.median([r.completed / (r.wall_s * r.scale) for r in rounds])


def _median(rounds, field: str) -> float:
    """Median over rounds of a wall time, in reference seconds."""
    return statistics.median([getattr(r, field) * r.scale for r in rounds])


class _Sampler:
    """Host-speed probes at most every ``PROBE_EVERY_S`` of a round."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.due = 0.0

    def __call__(self) -> float:
        started = time.perf_counter()
        if started < self.due:
            return 0.0
        import calibrate

        self.probes.append(calibrate.probe())
        ended = time.perf_counter()
        self.due = ended + PROBE_EVERY_S
        return ended - started


def _probed(workload: str, data, seed: int, traced: bool = False, mark=None):
    """One round with host-speed probes before, during and after its
    timed phase; sets ``Round.scale``.  The probes during it (skipped
    when traced: they would count as the enclosing span's time) follow
    the host's speed through a long phase; their time is taken out of
    the round's wall time."""
    import calibrate
    import drive

    sampler = _Sampler()
    gc.collect()  # the previous round's cyclic garbage, outside any timing
    sampler()
    round_ = drive.run_round(workload, data, seed, mark, None if traced else sampler)
    gc.collect()
    sampler.due = 0.0
    sampler()
    round_.scale = calibrate.REFERENCE_S / statistics.fmean(sampler.probes)
    return round_


def _scaled(summary: dict, scale: float) -> dict:
    """A span summary with its times in reference seconds."""
    return {
        group: {k: v * scale if k.endswith("_s") else v for k, v in entry.items()}
        for group, entry in summary.items()
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds for about ``seconds``; return the result object."""
    import calibrate
    import drive
    import inputs
    from spans import Tracer

    data = inputs.GENERATORS[workload](seed)
    drive.warm_up(workload)
    calibrate.probe()
    untraced, traced, spans = [], [], []
    tracer = None
    started = now = time.perf_counter()
    while True:
        untraced.append(_probed(workload, data, seed))
        if trace:
            with Tracer() as tracer:
                traced.append(_probed(workload, data, seed, True, tracer.clear))
            spans.append(_scaled(tracer.summary(), traced[-1].scale))
        last, now = now, time.perf_counter()
        # Stop at the round boundary nearest to ``seconds``.
        if now - started + (now - last) / 2 >= seconds:
            break

    rounds = untraced + traced
    problems = [p for r in rounds for p in r.problems]
    reference = untraced[0].virtual
    if any(r.virtual != reference for r in untraced[1:]):
        problems.append("counts differ between untraced rounds of one seed")
    if any(r.virtual != reference for r in traced):
        problems.append("traced round counts differ from the untraced round")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.attempted - r.completed for r in rounds)

    host = {
        "host.speed": statistics.median([r.scale for r in untraced]),
        "host.wall_ops_per_s": statistics.median([r.completed / r.wall_s for r in untraced]),
        "host.wall_setup_s": statistics.median([r.setup_s for r in untraced]),
    }
    lines: list[tuple[str, float, str]] = []
    if not trace:
        values = {
            "ops_per_s": _ops_per_s(untraced),
            "setup_s": _median(untraced, "setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "msgs_per_op": reference["msgs_per_op"],
            "vops_per_kvt": reference["vops_per_kvt"],
            "vlat_mean.insert": reference["vlat_mean.insert"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        lines = [(n, v, u) for n, (v, u) in metrics.items()]
        for kind in drive.KINDS:
            if reference[f"vlat_n.{kind}"]:
                for stat in ("p50", "p99", "mean"):
                    name = f"vlat_{stat}.{kind}"
                    if name not in metrics:
                        lines.append((name, reference[name], "vt"))
        lines += [(f"vlat_n.{k}", reference[f"vlat_n.{k}"], "count") for k in drive.KINDS]
        lines.append(("op_failure_ratio", failed / attempted, "ratio"))
        lines += [(n, host[n], u) for n, u in HOST.items()]
    else:
        metrics = {n: (reference[n], u) for n, u in LAYER_COUNTS.items()}
        for name, (group, field, unit) in LAYER_SPANS.items():
            metrics[name] = (statistics.median([s[group][field] for s in spans]), unit)
        calls = statistics.median([s["repair.shared_entries"]["calls"] for s in spans])
        others = {
            "repair.shared_entries.calls_per_op": calls / max(untraced[0].completed, 1),
            "verify.check_s": _median(untraced, "check_s"),
            "op_failure_ratio": failed / attempted,
            "trace.overhead": _ops_per_s(traced) / _ops_per_s(untraced),
        }
        others.update(host)
        metrics.update({n: (others[n], u) for n, u in OTHER_LAYER.items()})
        lines = [(n, v, u) for n, (v, u) in metrics.items()]
        tracer.write(OUT / f"spans-{workload}.bin")

    for name, value, unit in lines:
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} rounds = {len(untraced)} untraced, {len(traced)} traced")
    for problem in problems[:20]:
        print(f"{workload} CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in its own process (own peak RSS)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines() or [""]
        print("\n".join(out[:-1]))
        try:
            result = json.loads(out[-1])
        except json.JSONDecodeError:  # the child died before its result
            print(out[-1])
            result = {"correct": False}
        merged["correct"] &= proc.returncode == 0 and result["correct"]
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            merged["metrics"][f"{workload}/{name}"] = metric
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
