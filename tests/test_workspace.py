"""The workspace contract: a stage takes only its temporaries from a
workspace, and every array it returns is its own."""

import numpy as np
import pytest

import qostbc.harness as harness
from qostbc import BranchStat, add_awgn, modulation, sample_gain, sample_gains
from qostbc.channels import _gain_transforms, received_blocks
from qostbc.decoder import decode_batch
from qostbc.harness import ExperimentConfig, branch_stats, run_sweep
from qostbc._workspace import Workspace

SCRATCH = {"scratch0", "scratch1", "scratch2", "scratch3"}

B, K, N_R, N_T = 5, 8, 2, 6
MOD = modulation("qam16")
RNG = np.random.default_rng(3)
BITS = RNG.integers(0, 2, size=(B, K, MOD.bits_per_symbol), dtype=np.uint8)
SYMBOLS = MOD.map_bits(BITS)
GAINS = RNG.standard_normal((B, N_R, N_T)) + 1j * RNG.standard_normal((B, N_R, N_T))
RECEIVED = received_blocks(SYMBOLS, GAINS)

# every stage that returns an array, called on a workspace
STAGES = {
    "modem.symbols": lambda work: MOD.map_bits(BITS, work=work),
    "modem.bits": lambda work: MOD.demap(SYMBOLS, work=work),
    "fading.gain": lambda work: sample_gain(BranchStat("hoyt", 0.7), np.random.default_rng(1),
                                            (B, N_R), work),
    "fading.gains": lambda work: sample_gains(branch_stats(N_T, "mixed", "equipower"),
                                              np.random.default_rng(2), (B, N_R), work),
    "fading.noisy": lambda work: add_awgn(RECEIVED, 0.5, np.random.default_rng(4), work),
    "channels.received": lambda work: received_blocks(SYMBOLS, GAINS, work=work),
    "channels.gain_transforms": lambda work: _gain_transforms(GAINS, K, work),
    "decoder.estimates": lambda work: decode_batch(RECEIVED, GAINS, work=work)[0],
    "decoder.lambda": lambda work: decode_batch(RECEIVED, GAINS, work=work)[1],
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_returns_its_own_array(stage):
    # two calls on one workspace return arrays that share no memory with
    # each other or with any of its buffers
    work = Workspace()
    first = STAGES[stage](work)
    second = STAGES[stage](work)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert work._buffers
    for buf in work._buffers.values():
        assert not np.shares_memory(first, buf)
        assert not np.shares_memory(second, buf)


def test_sweep_leaves_only_scratch(monkeypatch):
    works = []

    class Recorded(Workspace):
        def __init__(self):
            super().__init__()
            works.append(self)

    monkeypatch.setattr(harness, "Workspace", Recorded)
    cfg = ExperimentConfig(k=8, n_t=6, n_r=2, modulation="psk8", channel="mixed",
                           esno_db=(0.0, 5.0), trials=300, target_errors=10**9, batch=128,
                           workers=2)
    run_sweep(cfg)
    assert len(works) == 2
    for work in works:
        assert work._buffers and set(work._buffers) <= SCRATCH
