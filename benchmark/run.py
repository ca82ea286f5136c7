"""crdsasim benchmark: simulation speed end to end, and per layer when traced.

Run from the root of a checkout:

    python3 benchmark/run.py --workload closed-crowd --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats whole operations of the workload for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs one operation
untraced and the same one traced, and reports the per-layer metrics.
``--workload all`` runs every workload in this one process, one after
another.  ``--digests`` prints the SHA-256 of each workload's first
operation, the reference digests listed in benchmark/README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# fresh interpreters timed per run for setup_s, after one untimed warm-up
SETUP_PROBES = 11


def _import_program():
    """Import crdsasim from this checkout's ``src`` and nowhere else."""
    if not (SRC / "crdsasim" / "__init__.py").is_file():
        sys.exit(f"error: no crdsasim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crdsasim
    if Path(crdsasim.__file__).resolve().parent != SRC / "crdsasim":
        sys.exit(f"error: crdsasim was imported from {crdsasim.__file__}, not {SRC}")


def setup_seconds(wl, seed: int) -> float:
    """Median wall time of a fresh interpreter importing the whole package
    (as every CLI invocation does) and building the workload's scenario."""
    code = ("import sys; sys.path.insert(0, 'src'); import crdsasim.cli; "
            "from crdsasim.config import load_scenario; "
            f"load_scenario({str(wl.scenario_path.relative_to(ROOT))!r})"
            f".with_overrides(seed={seed})")
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_run(wl, seed: int, seconds: float, chk):
    """Whole operations until ``seconds`` have passed; medians of per-op rates."""
    setup = setup_seconds(wl, W.op_seed(wl.name, seed, 0))
    block_rates, burst_rates = [], []
    first = None
    attempted = failed = 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        cfg = wl.scenario(W.op_seed(wl.name, seed, attempted))
        attempted += 1
        t0 = perf_counter()
        try:
            result = wl.execute(cfg)
        except Exception:  # noqa: BLE001 - counted, the run goes on
            failed += 1
            traceback.print_exc()
            continue
        wall = perf_counter() - t0
        block_rates.append(wl.blocks(cfg, result) / wall)
        burst_rates.append(wl.bursts(cfg, result) / wall)
        wl.check(cfg, result, chk, f"op {attempted - 1} (scenario seed {cfg.seed})")
        if first is None:
            first = (cfg, result)
    rss = peak_rss_mb()
    print(f"{wl.name}: {attempted} operations in {perf_counter() - start:.1f} s")
    if first is not None:
        cfg, result = first
        print(f"{wl.name}: digest {W.digest(wl.digest_text(cfg, result))} "
              f"(op 0, scenario seed {cfg.seed})")
        wl.final_checks(cfg, result, chk, OUT / wl.name)
    metrics = {
        "blocks_per_s": statistics.median(block_rates) if block_rates else 0.0,
        "bursts_per_s": statistics.median(burst_rates) if burst_rates else 0.0,
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    return attempted, failed, metrics, W.END_TO_END_UNITS


def traced_run(wl, seed: int, chk):
    """One operation untraced, then the same operation traced."""
    from tracer import Tracer

    cfg = wl.scenario(W.op_seed(wl.name, seed, 0))
    t0 = perf_counter()
    plain = wl.execute(cfg)
    untraced_s = perf_counter() - t0
    wl.check(cfg, plain, chk, "untraced op")

    tracer = Tracer()
    W.instrument(tracer, chk)
    with tracer.installed():
        cfg_t = wl.scenario(cfg.seed)
        t0 = perf_counter()
        traced = wl.execute(cfg_t)
        traced_s = perf_counter() - t0
    wl.check(cfg_t, traced, chk, "traced op")
    text = wl.digest_text(cfg, plain)
    chk.that(wl.digest_text(cfg_t, traced) == text,
             "tracing changed the operation's output")
    n_rng = tracer.stats["config.make_rng"].calls
    chk.that(n_rng == cfg.n_rcst + 1,
             f"make_rng called {n_rng} times for N={cfg.n_rcst}")
    print(f"{wl.name}: digest {W.digest(text)} (op 0, scenario seed {cfg.seed})")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"trace-{wl.name}-seed{seed}"
    tracer.write(stem)
    print(f"{wl.name}: spans and counts written to {stem}.*")
    metrics = W.layer_metrics(tracer, traced_s / untraced_s)
    return 2, 0, metrics, W.PER_LAYER_UNITS


def run_workload(wl, args):
    chk = W.Checks()
    if args.trace:
        attempted, failed, values, units = traced_run(wl, args.seed, chk)
    else:
        attempted, failed, values, units = timed_run(wl, args.seed, args.seconds, chk)
    for msg in chk.failures[:20]:
        print(f"{wl.name}: CHECK FAILED: {msg}")
    if len(chk.failures) > 20:
        print(f"{wl.name}: ... {len(chk.failures) - 20} more failed checks")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{wl.name}: {k} = {m['value']} {m['unit']}")
    return {"correct": not chk.failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_digests(seed: int):
    print("| workload | scenario seed of op 0 | SHA-256 |")
    print("| --- | --- | --- |")
    for wl in W.WORKLOADS.values():
        cfg = wl.scenario(W.op_seed(wl.name, seed, 0))
        text = wl.digest_text(cfg, wl.execute(cfg))
        print(f"| `{wl.name}` | {cfg.seed} | `{W.digest(text)}` |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digests", action="store_true",
                    help="print the reference digests of op 0 and exit")
    args = ap.parse_args(argv)
    if args.digests:
        print_digests(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    if args.workload != "all":
        result = run_workload(W.WORKLOADS[args.workload], args)
    else:
        parts = {name: run_workload(wl, args) for name, wl in W.WORKLOADS.items()}
        for name, part in parts.items():
            print(f"{name}: {json.dumps(part)}")
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{name}.{k}": v for name, p in parts.items()
                        for k, v in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _import_program()
    import workloads as W   # imports crdsasim, so only once src is on the path
    sys.exit(main())
