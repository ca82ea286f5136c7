"""Golden digests: the SHA-256 of the full ``metrics.json`` text of four
short seed-1 runs.  A refactor of the engine, the MAC, RLE or TCP that is
meant to keep behaviour must keep these digests; a change that moves them
on purpose says which numbers moved and why, then updates the table."""

import hashlib

import pytest

from crdsasim.config import ScenarioConfig, WAVEFORM_CATALOG
from crdsasim.engine import metrics_to_json, run

# scenario name -> (waveform, MSS, N, SHA-256 of metrics_to_json)
GOLDEN = {
    "exact-fit": (14, 173, 60,
                  "7c6e09e77965701b721ab2286f4ae86a057b0e9dd940c63a74b314eedcd5763f"),
    "fragmented": (14, 23, 80,
                   "5fe29602109aafef1cf7068c4c47d712de74a6731c8e35aeff2b12093ce355e7"),
    "wf3": (3, 23, 160,
            "00e8286dd2439d646a0710e9e3a59f2d0f30912df6d059cb645cee052edf969b"),
    # r = 0.175: every segment spans several bursts
    "sub-unit": (3, 173, 100,
                 "79f7a49790b6359c59b85d6971de0818f0b74f297cb9de80b7cf71f265f80d48"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_digest(name):
    wf, mss, n, want = GOLDEN[name]
    cfg = ScenarioConfig(waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss,
                         n_rcst=n, sim_duration_s=10.0, seed=1)
    text = metrics_to_json(run(cfg), cfg)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, name
