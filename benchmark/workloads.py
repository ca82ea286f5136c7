"""The benchmark's workloads, their correctness checks and their tracing.

Each workload is a sequence of operations, one simulation each, whose
scenario comes from ``scenarios/<name>.cfg`` with a seed derived from the
benchmark seed and the operation index.  The checks compare the program's
outputs with invariants and with computations from ``reference``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from crdsasim import cli, config, engine, mac, rle, tcp
from crdsasim.models import MODEL_NAMES

import reference

BENCH_DIR = Path(__file__).resolve().parent
SCENARIOS = BENCH_DIR / "scenarios"

END_TO_END_UNITS = {
    "blocks_per_s": "blocks/s",
    "bursts_per_s": "bursts/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.self_share": "ratio",
    "engine.flow_visits_per_block": "visits/block",
    "engine.visit_useful_ratio": "ratio",
    "mac.sic_decode.calls": "count",
    "mac.sic_decode.us_per_call": "us",
    "mac.sic_decode.bursts_per_call": "bursts/call",
    "mac.sic_decode.decoded_ratio": "ratio",
    "mac.sic_decode.cap_bound_calls": "count",
    "mac._decode_batch.calls": "count",
    "mac._decode_batch.ms_per_call": "ms",
    "mac._decode_batch.decoded_ratio": "ratio",
    "mac.sample_replica_slots.calls": "count",
    "mac.sample_replica_slots.us_per_call": "us",
    "rle.pack_next_burst.calls": "count",
    "rle.pack_next_burst.us_per_call": "us",
    "rle.slices_per_burst": "slices/burst",
    "tcp.TcpSender.on_ack.calls": "count",
    "tcp.TcpSender.on_ack.us_per_call": "us",
    "tcp.TcpReceiver.on_segment.calls": "count",
    "tcp.TcpReceiver.on_segment.us_per_call": "us",
    "tcp.TcpSender.on_timeout.calls": "count",
    "tcp.TcpSender.timer_expired.calls": "count",
    "tcp.TcpReceiver.poll_timer.calls": "count",
    "tcp.TcpReceiver.poll_timer.useful_ratio": "ratio",
    "config.load_scenario.ms": "ms",
    "config.make_rng.calls": "count",
    "trace.overhead_ratio": "ratio",
}

# Two-sided normal quantiles: 99% intervals for the checks on a fixed seed,
# and a 5-sigma band (false alarm about 6e-7) for checks whose inputs change
# with the benchmark seed, so that no seed fails them by chance.
Z_99 = 2.5758293035489
Z_SEED_BAND = 5.0

# Statistical checks against the reference use this fixed seed, so their
# verdict is the same in every run whatever --seed is.
CHECK_SEED = 1
CHECK_REFERENCE_BLOCKS = 2000
# Blocks per _decode_batch call compared one by one with the reference
# decoder in the traced run.
TRACE_CHECKED_BLOCKS = 128


def op_seed(workload: str, seed: int, k: int) -> int:
    """Scenario seed of operation k of a run, a pure function of its inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def that(self, cond, message: str):
        if not cond:
            self.failures.append(message)

    def fail(self, message: str):
        self.failures.append(message)


class Workload:
    def __init__(self, name: str):
        self.name = name
        self.scenario_path = SCENARIOS / f"{name}.cfg"

    def scenario(self, seed: int):
        return config.load_scenario(self.scenario_path).with_overrides(seed=seed)


class ClosedLoop(Workload):
    """``engine.run`` on one scenario file; r and f are worked out by hand
    from the waveform payload and the segment size on air."""

    def __init__(self, name, payload_bytes, seg_bytes_on_air, f_expected,
                 g_band=None):
        super().__init__(name)
        self.r_expected = payload_bytes / seg_bytes_on_air
        self.f_expected = f_expected
        self.g_band = g_band

    def execute(self, cfg):
        return engine.run(cfg)

    @staticmethod
    def blocks(cfg, m):
        return int(round(cfg.sim_duration_s / cfg.block_duration_s))

    def bursts(self, cfg, m):
        # the engine counts bursts after warm-up only: scale that rate per
        # block to the whole run
        measured_blocks = m.measured_s / cfg.block_duration_s
        return m.bursts_offered * self.blocks(cfg, m) / measured_blocks

    @staticmethod
    def digest_text(cfg, m) -> str:
        return engine.metrics_to_json(m, cfg)

    def check(self, cfg, m, chk: Checks, tag: str):
        measured_blocks = m.measured_s / cfg.block_duration_s
        to_segments = m.measured_s * 1000.0 / (8.0 * cfg.mss_bytes)
        per_flow = [t * to_segments for t in m.throughput_kbps_per_flow]
        chk.that(m.bursts_lost <= m.bursts_offered, f"{tag}: bursts_lost > bursts_offered")
        chk.that(m.p <= m.q, f"{tag}: p={m.p} > q={m.q}")
        chk.that(m.e_delta >= 1.0, f"{tag}: e_delta={m.e_delta} < 1")
        chk.that(0 < m.segments_delivered <= m.segments_sent,
                 f"{tag}: delivered={m.segments_delivered} sent={m.segments_sent}")
        chk.that(math.isclose(sum(per_flow), m.segments_delivered, rel_tol=1e-9),
                 f"{tag}: per-flow throughputs sum to {sum(per_flow)}, "
                 f"not {m.segments_delivered}")
        chk.that(max(per_flow) <= self.r_expected * measured_blocks,
                 f"{tag}: a flow delivered {max(per_flow)} segments in "
                 f"{measured_blocks} blocks of capacity r={self.r_expected}")
        chk.that(math.isclose(m.r, self.r_expected, rel_tol=1e-12),
                 f"{tag}: r={m.r}, by hand {self.r_expected}")
        chk.that(m.f == self.f_expected, f"{tag}: f={m.f}, by hand {self.f_expected}")
        if self.g_band is not None:
            lo, hi = self.g_band
            chk.that(lo <= m.g_mean <= hi, f"{tag}: G={m.g_mean} outside [{lo}, {hi}]")

    def final_checks(self, cfg, m, chk: Checks, out_dir: Path):
        """Re-simulate the first operation through the CLI and feed its
        metrics to every model."""
        expected = self.digest_text(cfg, m)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = out_dir / "scenario.cfg"
        cfg_path.write_text(cfg.to_text(), encoding="utf-8")
        code = cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out_dir / "repeat")])
        chk.that(code == 0, f"crdsasim simulate exited {code}")
        if code == 0:
            again = (out_dir / "repeat" / "metrics.json").read_text(encoding="utf-8")
            chk.that(again == expected,
                     "a repeat with the same seed gave different metrics_to_json")
        for row in cli.comparison_rows([json.loads(expected)], list(MODEL_NAMES)):
            for name in MODEL_NAMES:
                est = row[f"{name}_kbps"]
                ok = (est == "N/A" and row.get(f"{name}_error")) or (
                    isinstance(est, float) and math.isfinite(est) and est > 0)
                chk.that(ok, f"model {name} gave {est!r}")


class OpenLoop(Workload):
    """``mac.run_open_loop`` at a fixed transmit probability."""

    def __init__(self, name, tx_prob, n_blocks):
        super().__init__(name)
        self.tx_prob = tx_prob
        self.n_blocks = n_blocks

    def execute(self, cfg):
        return mac.run_open_loop(cfg, self.tx_prob, self.n_blocks)

    @staticmethod
    def blocks(cfg, st):
        return st.n_blocks

    @staticmethod
    def bursts(cfg, st):
        return st.bursts_offered

    def digest_text(self, cfg, st) -> str:
        # run_open_loop has no metrics_to_json; this covers all it returns
        doc = {"config": cfg.to_dict(), "tx_prob": self.tx_prob,
               "n_blocks": st.n_blocks, "bursts_offered": st.bursts_offered,
               "bursts_decoded": st.bursts_decoded,
               "offered_series": st.offered_series.tolist(),
               "decoded_series": st.decoded_series.tolist()}
        return json.dumps(doc, sort_keys=True)

    def g_expected(self, cfg):
        n = cfg.slots_per_block
        mean = self.tx_prob * cfg.n_rcst / n
        sd = math.sqrt(cfg.n_rcst * self.tx_prob * (1.0 - self.tx_prob)) / n
        return mean, sd

    def check(self, cfg, st, chk: Checks, tag: str):
        off, dec = st.offered_series, st.decoded_series
        chk.that(st.n_blocks == self.n_blocks and off.shape == (self.n_blocks,),
                 f"{tag}: wrong block count")
        chk.that(bool(((0 <= dec) & (dec <= off) & (off <= cfg.n_rcst)).all()),
                 f"{tag}: a block decoded more than offered or offered more than N")
        chk.that(st.bursts_offered == int(off.sum()) and
                 st.bursts_decoded == int(dec.sum()),
                 f"{tag}: totals disagree with the per-block series")
        chk.that(np.array_equal(st.g_series, off / cfg.slots_per_block),
                 f"{tag}: G series is not offered/slots")
        mean, sd = self.g_expected(cfg)
        half = Z_SEED_BAND * sd / math.sqrt(st.n_blocks)
        chk.that(abs(st.g_mean - mean) <= half,
                 f"{tag}: mean G {st.g_mean} outside {mean} +- {half}")

    def final_checks(self, cfg, st, chk: Checks, out_dir: Path):
        """99% intervals, on a fixed seed: mean G against tx*N/slots, and
        throughput per slot against the independent estimate."""
        cfg_c = self.scenario(CHECK_SEED)
        st_c = self.execute(cfg_c)
        self.check(cfg_c, st_c, chk, "check run")
        n = cfg_c.slots_per_block
        mean, sd = self.g_expected(cfg_c)
        half = Z_99 * sd / math.sqrt(st_c.n_blocks)
        chk.that(abs(st_c.g_mean - mean) <= half,
                 f"check run: mean G {st_c.g_mean} outside 99% CI {mean} +- {half}")
        _, ref_dec = reference.open_loop_estimate(
            n, cfg_c.n_rcst, self.tx_prob, cfg_c.replicas,
            CHECK_REFERENCE_BLOCKS, CHECK_SEED, mac.DEFAULT_MAX_ITERS)
        sim = st_c.decoded_series / n
        ref = np.asarray(ref_dec) / n
        half = Z_99 * math.sqrt(sim.var(ddof=1) / sim.size + ref.var(ddof=1) / ref.size)
        chk.that(abs(sim.mean() - ref.mean()) <= half,
                 f"check run: throughput/slot {sim.mean()} vs reference "
                 f"{ref.mean()}, 99% CI half-width {half}")


WORKLOADS = {
    wl.name: wl for wl in (
        # WF14 payload 188 B against MSS 173 + 15 B overhead: r = 1, f = 1
        ClosedLoop("closed-crowd", 188.0, 173 + 15, 1, g_band=(0.40, 0.60)),
        # WF14 effective payload 216.6 B against MSS 23 + 15 B: r = 5.7, f = 6
        ClosedLoop("closed-fragmented", 216.6, 23 + 15, 6),
        # G = 0.375 * 388 / 194 = 0.75, near the throughput peak
        OpenLoop("open-loop-194", 0.375, 8192),
    )
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- traced run ---------------------------------------------------------------

def instrument(tracer, chk: Checks):
    """Register wrappers on every attribute the program looks up when the
    benchmark drives it.  Names follow the module that defines the call."""
    count = tracer.count

    def on_run(args, m, parent):
        count("engine.blocks", ClosedLoop.blocks(args[0], m))

    def on_sic(args, result, parent):
        rows = args[0]
        cap = args[1] if len(args) > 1 else mac.DEFAULT_MAX_ITERS
        decoded, _ = result
        count("sic.bursts", len(rows))
        count("sic.decoded", len(decoded))
        capped = reference.peel(rows, cap)
        if capped != decoded:
            chk.fail(f"sic_decode decoded {sorted(decoded)}, reference "
                     f"{sorted(capped)} on {rows}")
        if len(reference.peel(rows)) > len(capped):
            count("sic.cap_bound")

    def on_batch(args, decoded, parent):
        block_of_burst, slot_matrix, n_blocks = args[0], args[1], args[2]
        cap = args[4] if len(args) > 4 else mac.DEFAULT_MAX_ITERS
        count("batch.bursts", int(decoded.size))
        count("batch.decoded", int(decoded.sum()))
        for j in range(min(n_blocks, TRACE_CHECKED_BLOCKS)):
            idx = np.flatnonzero(block_of_burst == j)
            got = set(np.flatnonzero(decoded[idx]).tolist())
            want = reference.peel(slot_matrix[idx].tolist(), cap)
            if got != want:
                chk.fail(f"_decode_batch block {j}: decoded {sorted(got)}, "
                         f"reference {sorted(want)}")

    def on_pack(args, slices, parent):
        count("rle.slices", len(slices) if slices else 0)

    def on_visit(args, result, parent):
        count("engine.visits")

    def on_has_data(args, result, parent):
        if parent == "engine.run":
            count("engine.visits")
            count("engine.backlogged", int(bool(result)))

    def on_poll(args, acks, parent):
        count("engine.visits")
        count("poll.useful", int(bool(acks)))

    wrap = tracer.wrap
    wrap(engine, "run", "engine.run", on_run)
    wrap(engine, "sample_replica_slots", "mac.sample_replica_slots")
    wrap(engine, "sic_decode", "mac.sic_decode", on_sic)
    wrap(engine, "pack_next_burst", "rle.pack_next_burst", on_pack)
    wrap(engine, "make_rng", "config.make_rng")
    wrap(mac, "run_open_loop", "mac.run_open_loop")
    wrap(mac, "sample_replica_slots", "mac.sample_replica_slots")
    wrap(mac, "_decode_batch", "mac._decode_batch", on_batch)
    wrap(config, "make_rng", "config.make_rng")
    wrap(config, "load_scenario", "config.load_scenario")
    wrap(tcp.TcpSender, "start", "tcp.TcpSender.start")
    wrap(tcp.TcpSender, "on_ack", "tcp.TcpSender.on_ack")
    wrap(tcp.TcpSender, "on_timeout", "tcp.TcpSender.on_timeout")
    wrap(tcp.TcpReceiver, "on_segment", "tcp.TcpReceiver.on_segment")
    # called for every terminal in every block: counted, but no spans
    wrap(tcp.TcpSender, "timer_expired", "tcp.TcpSender.timer_expired",
         on_visit, span=False)
    wrap(tcp.TcpReceiver, "poll_timer", "tcp.TcpReceiver.poll_timer",
         on_poll, span=False)
    wrap(rle.TxQueue, "has_data", "rle.TxQueue.has_data", on_has_data, span=False)


def layer_metrics(tracer, overhead_ratio: float) -> dict:
    st, c = tracer.stats, tracer.counters

    def calls(name):
        return st[name].calls

    def per_call(name, unit_ns):
        s = st[name]
        return s.total_ns / s.calls / unit_ns if s.calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    run = st["engine.run"]
    self_ns = run.total_ns - run.child_ns
    visits = c["engine.visits"]
    return {
        "engine.self_s": self_ns / 1e9,
        "engine.self_share": ratio(self_ns, run.total_ns),
        "engine.flow_visits_per_block": ratio(visits, c["engine.blocks"]),
        "engine.visit_useful_ratio": ratio(c["engine.backlogged"], visits),
        "mac.sic_decode.calls": calls("mac.sic_decode"),
        "mac.sic_decode.us_per_call": per_call("mac.sic_decode", 1e3),
        "mac.sic_decode.bursts_per_call": ratio(c["sic.bursts"],
                                                calls("mac.sic_decode")),
        "mac.sic_decode.decoded_ratio": ratio(c["sic.decoded"],
                                              c["sic.bursts"]),
        "mac.sic_decode.cap_bound_calls": c["sic.cap_bound"],
        "mac._decode_batch.calls": calls("mac._decode_batch"),
        "mac._decode_batch.ms_per_call": per_call("mac._decode_batch", 1e6),
        "mac._decode_batch.decoded_ratio": ratio(c["batch.decoded"],
                                                 c["batch.bursts"]),
        "mac.sample_replica_slots.calls": calls("mac.sample_replica_slots"),
        "mac.sample_replica_slots.us_per_call": per_call("mac.sample_replica_slots", 1e3),
        "rle.pack_next_burst.calls": calls("rle.pack_next_burst"),
        "rle.pack_next_burst.us_per_call": per_call("rle.pack_next_burst", 1e3),
        "rle.slices_per_burst": ratio(c["rle.slices"],
                                      calls("rle.pack_next_burst")),
        "tcp.TcpSender.on_ack.calls": calls("tcp.TcpSender.on_ack"),
        "tcp.TcpSender.on_ack.us_per_call": per_call("tcp.TcpSender.on_ack", 1e3),
        "tcp.TcpReceiver.on_segment.calls": calls("tcp.TcpReceiver.on_segment"),
        "tcp.TcpReceiver.on_segment.us_per_call": per_call("tcp.TcpReceiver.on_segment", 1e3),
        "tcp.TcpSender.on_timeout.calls": calls("tcp.TcpSender.on_timeout"),
        "tcp.TcpSender.timer_expired.calls": calls("tcp.TcpSender.timer_expired"),
        "tcp.TcpReceiver.poll_timer.calls": calls("tcp.TcpReceiver.poll_timer"),
        "tcp.TcpReceiver.poll_timer.useful_ratio": ratio(c["poll.useful"],
                                                         calls("tcp.TcpReceiver.poll_timer")),
        "config.load_scenario.ms": per_call("config.load_scenario", 1e6),
        "config.make_rng.calls": calls("config.make_rng"),
        "trace.overhead_ratio": overhead_ratio,
    }
