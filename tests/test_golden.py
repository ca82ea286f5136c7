"""Golden digests: the SHA-256 of the full ``metrics.json`` text of short
seed-1 runs.  A refactor of the engine, the MAC, RLE or TCP that is meant
to keep behaviour must keep these digests; a change that moves them on
purpose says which numbers moved and why, then updates the table."""

import hashlib

import pytest

from crdsasim.config import ScenarioConfig, WAVEFORM_CATALOG
from crdsasim.engine import metrics_to_json, run

# One RTT of one block: data arrives two blocks after it is sent and ACKs
# one block later, and the first retransmission timer (one block) expires
# on the block whose start time equals its deadline.
TIMER_EDGE = dict(nominal_rtt_s=0.013, processing_delay_blocks=0,
                  initial_rto_s=0.013, delayed_ack_b=3)

# scenario name -> (waveform, MSS, N, overrides of the 10 s seed-1 config,
# SHA-256 of metrics_to_json)
GOLDEN = {
    "exact-fit": (14, 173, 60, {},
                  "7c6e09e77965701b721ab2286f4ae86a057b0e9dd940c63a74b314eedcd5763f"),
    "fragmented": (14, 23, 80, {},
                   "5fe29602109aafef1cf7068c4c47d712de74a6731c8e35aeff2b12093ce355e7"),
    "wf3": (3, 23, 160, {},
            "00e8286dd2439d646a0710e9e3a59f2d0f30912df6d059cb645cee052edf969b"),
    # r = 0.175: every segment spans several bursts
    "sub-unit": (3, 173, 100, {},
                 "79f7a49790b6359c59b85d6971de0818f0b74f297cb9de80b7cf71f265f80d48"),
    # bursts lost in the run's last blocks still count
    "crowd-tail": (14, 173, 300, {"sim_duration_s": 3.0},
                   "a62ea1e040d21dc4460d6eb3106495bd1e7c9f1fe182ebc6c09839ab94021255"),
    "timer-edge": (14, 173, 80, TIMER_EDGE,
                   "efbb4723e7d020954870a428f0511e2a9d31e7cbabfe87baf12ee1d71eadc26c"),
    # a short first RTO: 52 timeouts after the warm-up, whose resends
    # queue new copies of sequences still partly sent at the cursor
    "sub-unit-rto": (3, 173, 100, {"initial_rto_s": 0.05},
                     "a349ddab524f689f9d8b7fd5391e5347b863baf40942da7609c9f9023a88090b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_digest(name):
    wf, mss, n, overrides, want = GOLDEN[name]
    kw = {"sim_duration_s": 10.0, **overrides}
    cfg = ScenarioConfig(waveform=WAVEFORM_CATALOG[wf], mss_bytes=mss,
                         n_rcst=n, seed=1, **kw)
    text = metrics_to_json(run(cfg), cfg)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, name
