"""Scenario parameterization, waveform catalog, and seeded RNG streams.

Every other module takes its knobs from :class:`ScenarioConfig`, which is
immutable after validation so it can be shared freely across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

__all__ = [
    "ConfigError",
    "Waveform",
    "WAVEFORM_CATALOG",
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario_text",
    "fragmentation_profile",
    "make_rng",
    "MAC_STREAM",
    "rcst_stream",
    "derive_run_seed",
]


class ConfigError(ValueError):
    """Raised on unparseable or invariant-violating scenario input."""


@dataclass(frozen=True)
class Waveform:
    """One DVB-RCS2 return-link burst configuration and the frame it is
    paired with."""

    wf_id: int
    payload_bytes: int
    default_slots: int    # time-slots per RA block
    exact_fit_mss: int    # MSS giving one segment per burst


# WF3 is QPSK 1/3 with 536-symbol bursts, WF14 QPSK 1/2 with 1616-symbol
# bursts (DVB-RCS2 reference waveforms).
WAVEFORM_CATALOG = {
    3: Waveform(3, 38, 194, 23),
    14: Waveform(14, 188, 64, 173),
}

# Effective RLE payload per (waveform, MSS) pair.  The published
# fragmentation table is normative for these four combinations; its r values
# are not reproducible from the raw waveform payloads with a single
# per-burst overhead constant, so the effective payload is kept as an
# explicit, overridable per-scenario quantity (see ``rle_payload_bytes``).
DEFAULT_RLE_PAYLOAD = {
    (3, 23): 38.0,     # r = 1
    (3, 173): 32.9,    # r = 0.175
    (14, 23): 216.6,   # r = 5.7
    (14, 173): 188.0,  # r = 1
}

SEGMENT_OVERHEAD_BYTES = 15  # compressed TCP/IP headers plus layer-2 overhead


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment parameterization with catalog defaults filled in."""

    waveform: Waveform
    mss_bytes: int
    n_rcst: int
    replicas: int = 3
    slots_per_block: int = 0          # 0 -> per-waveform default
    block_duration_s: float = 0.013
    nominal_rtt_s: float = 0.52
    delayed_ack_b: int = 2
    initial_rto_s: float = 2.0
    segment_overhead_bytes: int = SEGMENT_OVERHEAD_BYTES
    buffer_segments: int = 10000
    sim_duration_s: float = 100.0
    warmup_s: float = -1.0            # -1 -> 10% of sim_duration_s
    seed: int = 1
    rle_payload_bytes: float = 0.0    # 0 -> per (waveform, MSS) default
    # Ground-segment frame-processing latency (RCST scheduling, gateway
    # block handling, forward-link framing), split across the two
    # directions; the default reproduces the measured round-trip floor of
    # the reference system (~0.58 s vs the 0.52 s nominal).
    processing_delay_blocks: int = 4

    def __post_init__(self):
        # an int given to a float field is stored as the float the parser
        # would make of it, so the recorded config replays byte for byte
        for name, tp in _KEY_TYPES.items():
            if tp is float and isinstance(getattr(self, name), int):
                object.__setattr__(self, name, float(getattr(self, name)))
        if self.slots_per_block == 0:
            object.__setattr__(
                self, "slots_per_block", self.waveform.default_slots
            )
        if self.warmup_s == -1.0:
            object.__setattr__(self, "warmup_s", 0.1 * self.sim_duration_s)
        if self.rle_payload_bytes == 0:
            key = (self.waveform.wf_id, self.mss_bytes)
            object.__setattr__(
                self,
                "rle_payload_bytes",
                DEFAULT_RLE_PAYLOAD.get(key, float(self.waveform.payload_bytes)),
            )
        self.validate()

    def validate(self):
        def check(cond, invariant):
            if not cond:
                raise ConfigError(f"invalid scenario: {invariant}")

        for name, tp in _KEY_TYPES.items():
            if tp is float:
                check(math.isfinite(getattr(self, name)), f"{name} must be finite")
        check(self.mss_bytes > 0, "mss_bytes must be > 0")
        check(self.n_rcst >= 1, "n_rcst must be >= 1")
        check(self.replicas >= 1, "replicas must be >= 1")
        check(
            self.replicas <= self.slots_per_block,
            "replicas must be <= slots_per_block",
        )
        check(self.slots_per_block >= 1, "slots_per_block must be >= 1")
        check(self.block_duration_s > 0, "block_duration_s must be > 0")
        check(
            self.nominal_rtt_s >= self.block_duration_s,
            "nominal_rtt_s must be >= block_duration_s",
        )
        check(self.delayed_ack_b >= 1, "delayed_ack_b must be >= 1")
        check(self.initial_rto_s > 0, "initial_rto_s must be > 0")
        check(self.buffer_segments >= 1, "buffer_segments must be >= 1")
        check(self.sim_duration_s > 0, "sim_duration_s must be > 0")
        check(self.warmup_s >= 0, "warmup_s must be >= 0")
        n_blocks, warmup_blocks = self.block_counts
        check(
            warmup_blocks < n_blocks,
            "warmup_s must round to fewer blocks than sim_duration_s",
        )
        check(self.rle_payload_bytes > 0, "rle_payload_bytes must be > 0")
        check(self.processing_delay_blocks >= 0,
              "processing_delay_blocks must be >= 0")
        check(self.seed == int(self.seed), "seed must be an integer")
        check(self.seed >= 0, "seed must be >= 0")

    @property
    def block_counts(self) -> tuple[int, int]:
        """RA blocks in the whole run and in its warm-up, each duration
        rounded to the nearest block."""
        dt = self.block_duration_s
        return int(round(self.sim_duration_s / dt)), int(round(self.warmup_s / dt))

    @property
    def segment_bytes_on_air(self) -> int:
        """Bytes one TCP segment occupies at MAC layer (MSS + overhead)."""
        return self.mss_bytes + self.segment_overhead_bytes

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.to_dict().items())

    def to_dict(self) -> dict:
        """One scenario-file key per field, in field order; the waveform is
        stored as its catalog id."""
        d = {}
        for f in fields(self):
            if f.name == "waveform":
                d["waveform_id"] = self.waveform.wf_id
            else:
                d[f.name] = getattr(self, f.name)
        return d


# Scenario-file keys and the types their values parse to: one per
# ScenarioConfig field, with the waveform given by its catalog id.
_KEY_TYPES = {"waveform_id": int} | {
    name: tp for name, tp in get_type_hints(ScenarioConfig).items()
    if name != "waveform"
}


def parse_scenario_text(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse the flat ``key = value`` scenario format.

    Blank lines and ``#`` comments are ignored.  Unknown keys, duplicate
    keys, and malformed values are parse errors carrying the line number.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key '{key}'")
        try:
            raw[key] = _KEY_TYPES[key](value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse value '{value}' for '{key}'"
            ) from None

    if "waveform_id" not in raw:
        raise ConfigError(f"{source}: missing required key 'waveform_id'")
    wf_id = raw.pop("waveform_id")
    if wf_id not in WAVEFORM_CATALOG:
        raise ConfigError(
            f"{source}: unknown waveform_id {wf_id} "
            f"(catalog: {sorted(WAVEFORM_CATALOG)})"
        )
    waveform = WAVEFORM_CATALOG[wf_id]
    if "n_rcst" not in raw:
        raise ConfigError(f"{source}: missing required key 'n_rcst'")
    raw.setdefault("mss_bytes", waveform.exact_fit_mss)
    return ScenarioConfig(waveform=waveform, **raw)


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file (see :func:`parse_scenario_text`)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, source=str(path))


def fragmentation_profile(cfg: ScenarioConfig) -> tuple[float, int]:
    """Segments-per-burst capacity r and per-collision loss count f.

    r is the burst payload measured in (MSS + overhead) units; f is the
    number of whole segments lost when one full burst collides: ceil(r)
    for r > 1, otherwise 1.
    """
    r = cfg.rle_payload_bytes / cfg.segment_bytes_on_air
    f = math.ceil(round(r, 9)) if r > 1 else 1
    return r, f


# RNG stream layout: stream 0 drives MAC slot placement, stream i+1 drives
# everything private to RCST i, so adding a terminal never perturbs the
# draws of existing ones.
MAC_STREAM = 0


def rcst_stream(rcst_id: int) -> int:
    return rcst_id + 1


def make_rng(seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic, platform-independent generator for (seed, stream)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream_id))))


def derive_run_seed(seed: int, variant: int) -> int:
    """Per-sweep-point seed derivation (independent across variants)."""
    return int(np.random.SeedSequence((seed, variant, 0xC0FFEE)).generate_state(1)[0])
