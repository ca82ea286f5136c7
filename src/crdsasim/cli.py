"""Command-line front end.

Subcommands: simulate (one scenario -> metrics files), compare (model
estimates vs simulated throughput, relative error table), sweep
(population sweep -> figure data CSVs), mac-curve (open-loop load sweep
locating the MAC throughput peak).

Exit codes: 0 success, 1 runtime error, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from crdsasim.config import ConfigError, load_scenario
from crdsasim.engine import (
    TABLE6_COLUMNS,
    metrics_to_json,
    run,
    sweep,
    sweep_point_config,
)
from crdsasim.models import (
    MODEL_NAMES,
    LossProcessParams,
    ModelDomainError,
    TcpModelParams,
    blr_model,
    pftk_baseline,
    throughput_full,
    throughput_no_to,
)

__all__ = ["main", "evaluate_model", "comparison_rows"]


def _write_csv(path: Path, header: list[str], rows: list[list]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _comma_list(text: str, kind, flag: str) -> list:
    """The nonempty comma list ``text`` of ``kind`` values given to ``flag``;
    a missing, malformed or repeated item is a usage error."""
    try:
        items = [kind(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"{flag}: {text!r} is not a comma list of "
                          f"{kind.__name__} values") from None
    if not items:
        raise ConfigError(f"empty {flag}")
    if len(set(items)) < len(items):
        raise ConfigError(f"{flag}: {text!r} repeats an item")
    return items


def _model_list(text: str | None, default) -> list[str]:
    """The ``--models`` names, or ``default`` when the flag is not given;
    an empty list or a name outside MODEL_NAMES is a usage error."""
    if text is None:
        return list(default)
    models = _comma_list(text, str, "--models")
    for name in models:
        if name not in MODEL_NAMES:
            raise ConfigError(f"--models: unknown model {name!r} "
                              f"(choices: {','.join(MODEL_NAMES)})")
    return models


def evaluate_model(name: str, sim: dict, cfg: dict):
    """Evaluate one named model on a simulated metrics dict.

    The NewReno and PFTK variants consume the simulated (p, q, E[RTT]);
    the cross-layer variants consume only the simulated BLR.
    """
    tcp = TcpModelParams(
        b=cfg["delayed_ack_b"], e_rtt_s=sim["e_rtt_s"], rto_s=cfg["initial_rto_s"]
    )
    mss = cfg["mss_bytes"]
    if name == "newrenosat_noto":
        return throughput_no_to(LossProcessParams(sim["p"], sim["q"]), tcp, mss)
    if name == "newrenosat_full":
        return throughput_full(LossProcessParams(sim["p"], sim["q"]), tcp, mss)
    if name == "blr_noto":
        return blr_model(sim["blr"], tcp, "noto", mss)
    if name == "blr_full":
        return blr_model(sim["blr"], tcp, "full", mss)
    if name == "pftk":
        return pftk_baseline(LossProcessParams(sim["p"], sim["q"]), tcp, mss,
                             wmax_segments=cfg["buffer_segments"])
    raise ModelDomainError(f"unknown model '{name}' (choices: {MODEL_NAMES})")


def comparison_rows(metrics_docs: list[dict], models: list[str]) -> list[dict]:
    """Per-scenario rows of estimated throughput and relative error eta."""
    rows = []
    for doc in metrics_docs:
        sim = doc["metrics"]
        cfg = doc["config"]
        t_sim = sim["thr_kbps"]
        row = {
            "scenario": f"wf{cfg['waveform_id']}_mss{cfg['mss_bytes']}"
                        f"_n{cfg['n_rcst']}",
            "t_sim_kbps": t_sim,
        }
        for name in models:
            try:
                est = evaluate_model(name, sim, cfg)
                row[f"{name}_kbps"] = est.t_kbps
                row[f"{name}_eta"] = (
                    abs(1.0 - est.t_kbps / t_sim) if t_sim > 0 else "N/A"
                )
            except ModelDomainError as exc:
                row[f"{name}_kbps"] = "N/A"
                row[f"{name}_eta"] = "N/A"
                row[f"{name}_error"] = str(exc)
        rows.append(row)
    return rows


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed_override is not None:
        cfg = cfg.with_overrides(seed=args.seed_override)
    trace = [] if args.trace else None
    metrics = run(cfg, trace=trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(metrics_to_json(metrics, cfg),
                                      encoding="utf-8")
    row = metrics.table6_row()
    _write_csv(out / "table6_row.csv", list(TABLE6_COLUMNS),
               [[row[c] for c in TABLE6_COLUMNS]])
    if trace is not None:
        _write_csv(out / "trace.csv",
                   ["time_s", "flow", "event", "cwnd", "ssthresh", "phase"],
                   [list(t) for t in trace])
    if metrics.nonconvergent:
        print("warning: nonconvergent run, zero segments delivered",
              file=sys.stderr)
    print(f"simulated {cfg.sim_duration_s:.0f}s: thr={metrics.thr_kbps:.2f} kbps/flow "
          f"blr={metrics.blr:.3e} q={metrics.q:.3e} p={metrics.p:.3e} "
          f"E[RTT]={metrics.e_rtt_s:.3f}s xi={metrics.xi:.2e}")
    return 0


def _cmd_compare(args) -> int:
    models = _model_list(args.models, MODEL_NAMES)
    docs = []
    for path in args.metrics:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows = comparison_rows(docs, models)
    header = ["scenario", "t_sim_kbps"]
    for m in models:
        header += [f"{m}_kbps", f"{m}_eta"]
    table = [[row.get(h, "") for h in header] for row in rows]
    if args.out:
        _write_csv(Path(args.out) / "compare.csv", header, table)
    fmt = "  ".join("{:>18}" for _ in header)
    print(fmt.format(*header))
    for r in table:
        print(fmt.format(*[f"{v:.4g}" if isinstance(v, float) else str(v)
                           for v in r]))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed_override is not None:
        cfg = cfg.with_overrides(seed=args.seed_override)
    n_list = _comma_list(args.n_list, int, "--n-list")
    models = _model_list(args.models, ["newrenosat_noto", "pftk"])
    results = sweep(cfg, n_list, parallel=args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    n_blocks, warmup_blocks = cfg.block_counts
    measured_slots = (n_blocks - warmup_blocks) * cfg.slots_per_block
    load_rows = []
    eta_rows = []
    for n, m in zip(n_list, results):
        thr_per_slot = (m.bursts_offered - m.bursts_lost) / measured_slots
        load_rows.append([n, m.g_mean, thr_per_slot, m.load_per_rcst])
        text = metrics_to_json(m, sweep_point_config(cfg, n))
        (out / f"metrics_n{n}.json").write_text(text, encoding="utf-8")
        row = comparison_rows([json.loads(text)], models)[0]
        eta_rows.append([n] + [row.get(f"{mm}_eta", "N/A") for mm in models])

    _write_csv(out / "sweep_load.csv",
               ["n_rcst", "g_mean", "mac_throughput_per_slot", "lambda"],
               load_rows)
    _write_csv(out / "sweep_eta.csv",
               ["n_rcst"] + [f"{m}_eta" for m in models], eta_rows)
    for r in load_rows:
        print(f"N={r[0]:>4}  G={r[1]:.4f}  T/slot={r[2]:.4f}  lambda={r[3]:.5f}")
    return 0


def _cmd_mac_curve(args) -> int:
    from crdsasim.mac import run_open_loop

    cfg = load_scenario(args.config)
    if args.seed_override is not None:
        cfg = cfg.with_overrides(seed=args.seed_override)
    grid = _comma_list(args.tx_grid, float, "--tx-grid")
    if not all(0.0 <= tx <= 1.0 for tx in grid):
        raise ConfigError("--tx-grid values must lie in [0, 1]")
    if args.blocks < 1:
        raise ConfigError("--blocks must be >= 1")
    if args.per_block and len({f"{tx:g}" for tx in grid}) < len(grid):
        raise ConfigError("--per-block: --tx-grid values equal to six "
                          "significant digits would share one file")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for tx in grid:
        stats = run_open_loop(cfg, tx, args.blocks)
        rows.append([tx, stats.g_mean, stats.throughput_per_slot, stats.blr])
        if args.per_block:
            per_block = [
                [i, o / cfg.slots_per_block, int(d), int(o - d)]
                for i, (o, d) in enumerate(
                    zip(stats.offered_series, stats.decoded_series))
            ]
            _write_csv(out / f"mac_blocks_tx{tx:g}.csv",
                       ["block_index", "G", "decoded", "lost"], per_block)
    _write_csv(out / "mac_curve.csv",
               ["tx_prob", "g_mean", "throughput_per_slot", "blr"], rows)
    best = max(rows, key=lambda r: r[2])
    print(f"G* ~= {best[1]:.3f} (throughput {best[2]:.3f} bursts/slot, "
          f"blr {best[3]:.3e}) over {len(rows)} grid points")
    for r in rows:
        print(f"tx={r[0]:.4f}  G={r[1]:.4f}  T={r[2]:.4f}  BLR={r[3]:.4e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crdsasim",
        description="TCP NewReno over a CRDSA++ random-access return link: "
                    "simulate, model, and cross-validate.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--trace", action="store_true",
                     help="also write a per-flow event trace CSV")
    sim.add_argument("--seed-override", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="model-vs-simulation error table")
    cmp_.add_argument("metrics", nargs="+", help="metrics.json files")
    cmp_.add_argument("--models", default=None,
                      help=f"comma list from {','.join(MODEL_NAMES)}")
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=_cmd_compare)

    sw = sub.add_parser("sweep", help="population sweep producing figure data")
    sw.add_argument("--config", required=True)
    sw.add_argument("--n-list", required=True, help="comma list of RCST counts")
    sw.add_argument("--out", required=True)
    sw.add_argument("--models", default=None)
    sw.add_argument("--parallel", type=int, default=1)
    sw.add_argument("--seed-override", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)

    mc = sub.add_parser("mac-curve", help="open-loop MAC load sweep")
    mc.add_argument("--config", required=True)
    mc.add_argument("--tx-grid", required=True,
                    help="comma list of per-block transmit probabilities")
    mc.add_argument("--blocks", type=int, default=20000)
    mc.add_argument("--per-block", action="store_true",
                    help="also write per-block (block_index, G, decoded, lost) CSVs")
    mc.add_argument("--out", required=True)
    mc.add_argument("--seed-override", type=int, default=None)
    mc.set_defaults(func=_cmd_mac_curve)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
