import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from crdsasim import config
from crdsasim.config import (
    ConfigError,
    ScenarioConfig,
    WAVEFORM_CATALOG,
    derive_run_seed,
    fragmentation_profile,
    load_scenario,
    make_rng,
    parse_scenario_text,
)


def make_cfg(wf=14, mss=173, **kw):
    kw.setdefault("n_rcst", 10)
    return ScenarioConfig(waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss, **kw)


def floats_in(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False,
                     allow_infinity=False)


@st.composite
def scenario_configs(draw):
    """Valid configs with every field drawn, defaults included."""
    slots = draw(st.integers(0, 300))      # 0 -> per-waveform default
    block = draw(floats_in(1e-4, 0.1))
    sim = draw(floats_in(1.0, 1000.0))
    return ScenarioConfig(
        waveform=WAVEFORM_CATALOG[draw(st.sampled_from(sorted(WAVEFORM_CATALOG)))],
        mss_bytes=draw(st.integers(1, 1500)),
        n_rcst=draw(st.integers(1, 500)),
        replicas=draw(st.integers(1, min(slots or 64, 6))),
        slots_per_block=slots,
        block_duration_s=block,
        nominal_rtt_s=draw(floats_in(block, 2.0)),
        delayed_ack_b=draw(st.integers(1, 8)),
        initial_rto_s=draw(floats_in(1e-3, 10.0)),
        segment_overhead_bytes=draw(st.integers(0, 100)),
        buffer_segments=draw(st.integers(1, 100000)),
        sim_duration_s=sim,
        # at most one block short of the run, so that at least one
        # block is measured after rounding
        warmup_s=draw(st.just(-1.0) | floats_in(0.0, (round(sim / block) - 1) * block)),
        seed=draw(st.integers(0, 2**32 - 1)),
        rle_payload_bytes=draw(st.just(0.0) | floats_in(1.0, 5000.0)),
        processing_delay_blocks=draw(st.integers(0, 20)),
    )


class TestWaveformCatalog:
    def test_catalog_contents(self):
        wf3 = WAVEFORM_CATALOG[3]
        assert (wf3.burst_len_symbols, wf3.payload_bytes, wf3.payload_symbols) == (536, 38, 456)
        assert wf3.mapping == "QPSK" and wf3.code_rate == pytest.approx(1 / 3)
        wf14 = WAVEFORM_CATALOG[14]
        assert (wf14.burst_len_symbols, wf14.payload_bytes, wf14.payload_symbols) == (1616, 188, 1504)
        assert wf14.code_rate == pytest.approx(1 / 2)
        assert set(WAVEFORM_CATALOG) == {3, 14}

    def test_unknown_waveform_rejected(self):
        with pytest.raises(ConfigError, match="unknown waveform_id"):
            parse_scenario_text("waveform_id = 5\nn_rcst = 10\n")


class TestLoadScenario:
    def test_wf3_defaults(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("waveform_id = 3\nmss_bytes = 23\nn_rcst = 110\n")
        cfg = load_scenario(p)
        assert cfg.slots_per_block == 194
        assert cfg.block_duration_s == 0.013
        assert cfg.nominal_rtt_s == 0.52
        assert cfg.delayed_ack_b == 2
        assert cfg.initial_rto_s == 2.0
        assert cfg.replicas == 3

    def test_wf14_default_slots(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text("waveform_id = 14\nn_rcst = 30\n")
        cfg = load_scenario(p)
        assert cfg.slots_per_block == 64
        assert cfg.mss_bytes == 173  # exact-fit default

    def test_replicas_zero_rejected(self):
        with pytest.raises(ConfigError, match="replicas"):
            parse_scenario_text("waveform_id = 14\nn_rcst = 5\nreplicas = 0\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_scenario_text("waveform_id = 14\nn_rcst = 5\nbogus line\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=":2:.*nonsense"):
            parse_scenario_text("waveform_id = 14\nnonsense = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_text("waveform_id = 14\nn_rcst = 5\nn_rcst = 6\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_scenario_text("waveform_id = 14\nn_rcst = many\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="waveform_id"):
            parse_scenario_text("n_rcst = 5\n")
        with pytest.raises(ConfigError, match="n_rcst"):
            parse_scenario_text("waveform_id = 14\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_scenario_text(
            "# scenario\n\nwaveform_id = 14  # the big one\nn_rcst = 5\n"
        )
        assert cfg.n_rcst == 5

    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text(
            "waveform_id = 3\nmss_bytes = 173\nn_rcst = 42\nseed = 99\n"
            "sim_duration_s = 77.5\n"
        )
        cfg = load_scenario(p)
        again = parse_scenario_text(cfg.to_text())
        assert again == cfg

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_text_round_trip_every_field(self, data):
        # every field varies, so a key the text format drops or mistypes
        # breaks the equality
        cfg = data.draw(scenario_configs())
        assert parse_scenario_text(cfg.to_text()) == cfg

    def test_recorded_keys_are_the_parsed_keys(self):
        cfg = make_cfg()
        field_keys = {"waveform_id" if f.name == "waveform" else f.name
                      for f in fields(ScenarioConfig)}
        assert len(field_keys) == 16
        assert set(cfg.to_dict()) == set(config._KEY_TYPES) == field_keys

    def test_validation_messages_name_invariant(self):
        with pytest.raises(ConfigError, match="nominal_rtt_s"):
            make_cfg(nominal_rtt_s=0.001)
        with pytest.raises(ConfigError, match="delayed_ack_b"):
            make_cfg(delayed_ack_b=0)
        with pytest.raises(ConfigError, match="replicas must be <="):
            make_cfg(replicas=100, slots_per_block=64)
        with pytest.raises(ConfigError, match="warmup_s"):
            make_cfg(sim_duration_s=10.0, warmup_s=10.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key", [k for k, tp in config._KEY_TYPES.items()
                                     if tp is float])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            make_cfg(**{key: value})

    @pytest.mark.parametrize("kw", [
        # 1.4 blocks of 13 ms and a warm-up of 0.6 blocks: both round to 1
        dict(sim_duration_s=0.0182, warmup_s=0.0078),
        dict(sim_duration_s=1.0, block_duration_s=0.1, warmup_s=0.99),
        # the run itself rounds to no block at all
        dict(sim_duration_s=0.006, warmup_s=0.0),
    ])
    def test_warmup_must_leave_a_measured_block(self, kw):
        with pytest.raises(ConfigError, match="warmup_s"):
            make_cfg(**kw)

    def test_block_counts_round_to_nearest_block(self):
        cfg = make_cfg(sim_duration_s=1.0, block_duration_s=0.1, warmup_s=0.86)
        assert cfg.block_counts == (10, 9)


class TestFragmentationProfile:
    # the published fragmentation table is normative for these four combos
    @pytest.mark.parametrize(
        "wf,mss,r_expected,f_expected",
        [(3, 23, 1.0, 1), (3, 173, 0.175, 1), (14, 23, 5.7, 6), (14, 173, 1.0, 1)],
    )
    def test_table_values(self, wf, mss, r_expected, f_expected):
        r, f = fragmentation_profile(make_cfg(wf=wf, mss=mss))
        assert r == pytest.approx(r_expected, abs=1e-12)
        assert f == f_expected

    def test_custom_rle_payload_respected(self):
        cfg = make_cfg(wf=14, mss=23, rle_payload_bytes=76.0)
        r, f = fragmentation_profile(cfg)
        assert r == pytest.approx(2.0) and f == 2

    @given(
        payload=st.floats(min_value=1.0, max_value=5000.0),
        mss=st.integers(min_value=1, max_value=1500),
    )
    def test_f_rule_property(self, payload, mss):
        cfg = make_cfg(wf=14, mss=mss, rle_payload_bytes=payload)
        r, f = fragmentation_profile(cfg)
        if r <= 1.0:
            assert f == 1
        else:
            assert f == math.ceil(round(r, 9))
            assert f >= 1


class TestSeededRng:
    def test_same_seed_stream_identical(self):
        a = make_rng(123, 4).random(100)
        b = make_rng(123, 4).random(100)
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = make_rng(123, 0).random(100)
        b = make_rng(123, 1).random(100)
        assert (a != b).any()

    def test_adding_stream_does_not_perturb_others(self):
        # draws from stream k are a pure function of (seed, k)
        before = [make_rng(5, s).random(10).tolist() for s in range(3)]
        after = [make_rng(5, s).random(10).tolist() for s in range(4)]
        assert before == after[:3]

    def test_derived_run_seeds_distinct_and_stable(self):
        s1 = derive_run_seed(1, 30)
        s2 = derive_run_seed(1, 50)
        assert s1 != s2
        assert derive_run_seed(1, 30) == s1
