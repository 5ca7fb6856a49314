"""Every simulate stage writes each array it allocates before it reads it.

A fresh large array from ``np.empty`` is often zero-filled by the system,
so a stage that reads one before writing it can pass on zeros.  Here
``np.empty`` hands out arrays filled with all-ones bytes instead (NaN as a
float or complex, -1 as an integer), and every stage must return what it
returns on ordinary allocation."""

import ctypes

import numpy as np
import pytest

import qostbc.harness as harness
from qostbc import BranchStat, add_awgn, modulation, sample_gain, sample_gains
from qostbc.channels import _gain_transforms, received_blocks
from qostbc.decoder import decode_batch
from qostbc.harness import ExperimentConfig, branch_stats
from qostbc.modem import count_bit_errors

B, K, N_R, N_T = 5, 8, 2, 6
MOD = modulation("qam16")
RNG = np.random.default_rng(3)
BITS = RNG.integers(0, 2, size=(B, K, MOD.bits_per_symbol), dtype=np.uint8)
SYMBOLS = MOD.map_bits(BITS)
GAINS = RNG.standard_normal((B, N_R, N_T)) + 1j * RNG.standard_normal((B, N_R, N_T))
RECEIVED = received_blocks(SYMBOLS, GAINS)
PSK = modulation("psk8")
PSK_BITS = BITS[..., :3]

STAGES = {
    "modem.symbols": lambda: MOD.map_bits(BITS),
    "modem.bits": lambda: MOD.demap(SYMBOLS),
    "modem.psk": lambda: PSK.demap(PSK.map_bits(PSK_BITS)),
    "modem.errors": lambda: count_bit_errors(BITS, MOD.demap(RECEIVED[..., 0] / 3)),
    "fading.gain": lambda: sample_gain(BranchStat("hoyt", 0.7), np.random.default_rng(1), (B, N_R)),
    "fading.nakagami": lambda: sample_gain(BranchStat("nakagami", 2.5), np.random.default_rng(1),
                                           (B, N_R)),
    "fading.gains": lambda: sample_gains(branch_stats(N_T, "mixed", "equipower"),
                                         np.random.default_rng(2), (B, N_R)),
    "fading.noisy": lambda: add_awgn(RECEIVED, 0.5, np.random.default_rng(4)),
    "channels.received": lambda: received_blocks(SYMBOLS, GAINS),
    "channels.punctured": lambda: received_blocks(SYMBOLS, GAINS[..., :3]),
    "channels.gain_transforms": lambda: _gain_transforms(GAINS, K),
    "decoder.estimates": lambda: decode_batch(RECEIVED, GAINS)[0],
    "decoder.lambda": lambda: decode_batch(RECEIVED, GAINS)[1],
    "decoder.alamouti": lambda: decode_batch(RECEIVED[:, :2, :1], GAINS[:, :1, :2])[0],
}


def garbage_empty(monkeypatch):
    """Make ``np.empty`` fill every array it returns with all-ones bytes."""
    real = np.empty

    def empty(*args, **kwargs):
        arr = real(*args, **kwargs)
        ctypes.memset(arr.ctypes.data, 0xFF, arr.nbytes)
        return arr

    monkeypatch.setattr(np, "empty", empty)


@pytest.mark.parametrize("stage", STAGES)
def test_stage_reads_no_unwritten_memory(stage, monkeypatch):
    want = STAGES[stage]()
    garbage_empty(monkeypatch)
    assert np.array_equal(STAGES[stage](), want)


@pytest.mark.parametrize("params", [
    dict(k=2, n_t=2, n_r=2, modulation="psk8", channel="mixed", batch=256),
    dict(k=16, n_t=13, n_r=2, modulation="qam16", channel="mixed", batch=64),
    dict(k=256, n_t=200, n_r=1, modulation="qpsk", channel="rice:m=2", batch=8),
], ids=["k2-psk8-mixed", "k16-nt13-qam16-mixed", "k256-nt200-qpsk-rice"])
def test_batch_reads_no_unwritten_memory(params, monkeypatch):
    cfg = ExperimentConfig(esno_db=(5.0,), **params)
    want = harness._sim_batch(cfg, 0.3, 0, 2, cfg.batch)
    garbage_empty(monkeypatch)
    assert harness._sim_batch(cfg, 0.3, 0, 2, cfg.batch) == want
