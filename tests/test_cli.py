import csv
import json

import pytest

from crdsasim.cli import comparison_rows, evaluate_model, main


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(
        "waveform_id = 14\nmss_bytes = 173\nn_rcst = 6\n"
        "sim_duration_s = 40\nwarmup_s = 8\nseed = 3\n"
    )
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def metrics_section(path):
    doc = json.loads(path.read_text())
    return doc, json.dumps(doc["metrics"], indent=2, sort_keys=True)


def assert_replays(metrics_path, tmp_path):
    """The config recorded beside a metrics document, written back out as a
    scenario file, reproduces the metrics byte for byte."""
    doc, metrics = metrics_section(metrics_path)
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in doc["config"].items()))
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, again = metrics_section(out / "metrics.json")
    assert again == metrics


class TestSimulate:
    def test_writes_metrics_and_row(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["config"]["n_rcst"] == 6
        assert doc["metrics"]["segments_delivered"] > 0
        rows = read_csv(out / "table6_row.csv")
        assert rows[0] == ["wf", "mss", "n_rcst", "blr", "r", "f", "q", "p",
                           "e_delta", "e_rtt", "thr_kbps", "xi"]
        assert len(rows) == 2

    def test_trace_flag(self, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(config_file), "--out", str(out),
                   "--trace"])
        assert rc == 0
        rows = read_csv(out / "trace.csv")
        assert rows[0] == ["time_s", "flow", "event", "cwnd", "ssthresh", "phase"]
        assert len(rows) > 1

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("waveform_id = 14\nn_rcst = 5\nreplicas = 0\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "replicas" in capsys.readouterr().err

    def test_non_finite_value_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("waveform_id = 14\nn_rcst = 5\nsim_duration_s = inf\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "sim_duration_s must be finite" in capsys.readouterr().err

    def test_processing_delay_key_accepted(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("waveform_id = 14\nn_rcst = 2\nsim_duration_s = 5\n"
                       "processing_delay_blocks = 0\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "metrics.json").read_text())
        assert doc["config"]["processing_delay_blocks"] == 0

    def test_recorded_config_replays(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(out)]) == 0
        assert_replays(out / "metrics.json", tmp_path)

    def test_missing_config_exit_1(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("waveform_id = 14\nn_rcst = 5\nseed = -1\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_negative_seed_override_exit_2(self, config_file, tmp_path, capsys):
        rc = main(["simulate", "--config", str(config_file),
                   "--out", str(tmp_path / "o"), "--seed-override", "-5"])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_seed_override(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_file), "--out", str(out1),
              "--seed-override", "77"])
        main(["simulate", "--config", str(config_file), "--out", str(out2),
              "--seed-override", "77"])
        assert (out1 / "metrics.json").read_text() == (out2 / "metrics.json").read_text()


class TestCompare:
    def test_round_trip_through_compare(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        rc = main(["compare", str(out / "metrics.json"),
                   "--models", "newrenosat_noto,pftk", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "compare.csv")
        assert rows[0][:2] == ["scenario", "t_sim_kbps"]
        assert "newrenosat_noto_eta" in rows[0]
        assert len(rows) == 2

    @pytest.mark.parametrize("models, named", [
        ("foo,pftk", "'foo'"), ("", "empty --models"), (",", "empty --models"),
    ])
    def test_bad_models_exit_2(self, tmp_path, capsys, models, named):
        doc = {
            "config": {"waveform_id": 14, "mss_bytes": 173, "n_rcst": 1,
                       "delayed_ack_b": 2, "initial_rto_s": 2.0,
                       "buffer_segments": 10000},
            "metrics": {"p": 1e-3, "q": 2e-3, "blr": 1e-3, "e_rtt_s": 0.6,
                        "thr_kbps": 50.0},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        rc = main(["compare", str(path), "--models", models,
                   "--out", str(tmp_path / "cmp")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_domain_error_marks_cell(self):
        doc = {
            "config": {"waveform_id": 14, "mss_bytes": 173, "n_rcst": 1,
                       "delayed_ack_b": 2, "initial_rto_s": 2.0,
                       "buffer_segments": 10000},
            "metrics": {"p": 0.0, "q": 0.0, "blr": 0.0, "e_rtt_s": 0.6,
                        "thr_kbps": 100.0},
        }
        rows = comparison_rows([doc], ["newrenosat_noto", "blr_noto"])
        assert rows[0]["newrenosat_noto_kbps"] == "N/A"
        assert rows[0]["blr_noto_eta"] == "N/A"

    def test_zero_sim_throughput_marks_eta(self):
        doc = {
            "config": {"waveform_id": 14, "mss_bytes": 173, "n_rcst": 1,
                       "delayed_ack_b": 2, "initial_rto_s": 2.0,
                       "buffer_segments": 10000},
            "metrics": {"p": 1e-3, "q": 2e-3, "blr": 1e-3, "e_rtt_s": 0.6,
                        "thr_kbps": 0.0},
        }
        rows = comparison_rows([doc], ["newrenosat_noto"])
        assert rows[0]["newrenosat_noto_eta"] == "N/A"
        assert rows[0]["newrenosat_noto_kbps"] != "N/A"

    def test_evaluate_model_names(self):
        sim = {"p": 1e-3, "q": 1.2e-3, "blr": 1e-3, "e_rtt_s": 0.6}
        cfg = {"delayed_ack_b": 2, "initial_rto_s": 2.0, "mss_bytes": 173,
               "buffer_segments": 10000}
        for name in ("newrenosat_noto", "newrenosat_full", "blr_noto",
                     "blr_full", "pftk"):
            est = evaluate_model(name, sim, cfg)
            assert est.t_kbps > 0


class TestSweep:
    def test_sweep_outputs(self, config_file, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(config_file), "--n-list", "3,6",
                   "--out", str(out)])
        assert rc == 0
        load = read_csv(out / "sweep_load.csv")
        assert load[0] == ["n_rcst", "g_mean", "mac_throughput_per_slot", "lambda"]
        assert [r[0] for r in load[1:]] == ["3", "6"]
        eta = read_csv(out / "sweep_eta.csv")
        assert eta[0][0] == "n_rcst"
        assert (out / "metrics_n3.json").exists()
        assert (out / "metrics_n6.json").exists()

    def test_recorded_config_replays(self, config_file, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(config_file), "--n-list", "5",
                     "--out", str(out)]) == 0
        doc, _ = metrics_section(out / "metrics_n5.json")
        assert doc["config"]["seed"] == doc["metrics"]["seed"]
        assert_replays(out / "metrics_n5.json", tmp_path)

    def test_empty_n_list_exit_2(self, config_file, tmp_path):
        rc = main(["sweep", "--config", str(config_file), "--n-list", ",",
                   "--out", str(tmp_path / "sw")])
        assert rc == 2

    def test_unknown_model_exit_2(self, config_file, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(config_file), "--n-list", "2",
                   "--models", "bogus", "--out", str(out)])
        assert rc == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_n_list_exit_2(self, config_file, tmp_path, capsys):
        rc = main(["sweep", "--config", str(config_file), "--n-list", "x",
                   "--out", str(tmp_path / "sw")])
        assert rc == 2
        assert "--n-list" in capsys.readouterr().err


class TestMacCurve:
    def test_curve_csv_and_peak(self, tmp_path, capsys):
        cfg = tmp_path / "mac.cfg"
        cfg.write_text("waveform_id = 14\nn_rcst = 128\nseed = 5\n")
        out = tmp_path / "mc"
        rc = main(["mac-curve", "--config", str(cfg),
                   "--tx-grid", "0.1,0.25,0.4", "--blocks", "2000",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "mac_curve.csv")
        assert rows[0] == ["tx_prob", "g_mean", "throughput_per_slot", "blr"]
        assert len(rows) == 4
        assert "G*" in capsys.readouterr().out

    def test_per_block_csvs(self, tmp_path):
        cfg = tmp_path / "mac.cfg"
        cfg.write_text("waveform_id = 14\nn_rcst = 128\nseed = 5\n")
        out = tmp_path / "mc"
        rc = main(["mac-curve", "--config", str(cfg), "--tx-grid", "0.1,0.4",
                   "--blocks", "50", "--per-block", "--out", str(out)])
        assert rc == 0
        curve = {r[0]: float(r[2]) for r in read_csv(out / "mac_curve.csv")[1:]}
        assert sorted(curve) == ["0.1", "0.4"]
        for tx, throughput_per_slot in curve.items():
            rows = read_csv(out / f"mac_blocks_tx{tx}.csv")
            assert rows[0] == ["block_index", "G", "decoded", "lost"]
            assert len(rows) == 1 + 50
            assert [int(r[0]) for r in rows[1:]] == list(range(50))
            decoded = sum(int(r[2]) for r in rows[1:])
            assert decoded / (50 * 64) == pytest.approx(throughput_per_slot,
                                                        rel=1e-12)
        assert sorted(p.name for p in out.iterdir()) == [
            "mac_blocks_tx0.1.csv", "mac_blocks_tx0.4.csv", "mac_curve.csv"]

    @pytest.mark.parametrize("flag, value", [
        ("--blocks", "0"), ("--blocks", "-3"),
        ("--tx-grid", "1.5"), ("--tx-grid", "abc"),
    ])
    def test_usage_error_exit_2(self, tmp_path, capsys, flag, value):
        cfg = tmp_path / "mac.cfg"
        cfg.write_text("waveform_id = 14\nn_rcst = 128\n")
        opts = {"--tx-grid": "0.1", "--blocks": "10", flag: value}
        rc = main(["mac-curve", "--config", str(cfg), "--out", str(tmp_path / "mc"),
                   *[x for kv in opts.items() for x in kv]])
        assert rc == 2
        assert flag in capsys.readouterr().err

    def test_empty_grid_exit_2(self, tmp_path):
        cfg = tmp_path / "mac.cfg"
        cfg.write_text("waveform_id = 14\nn_rcst = 128\n")
        rc = main(["mac-curve", "--config", str(cfg), "--tx-grid", "",
                   "--out", str(tmp_path / "mc")])
        assert rc == 2
