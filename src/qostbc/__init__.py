"""Rate-one quasi-orthogonal space-time block codes.

Recursive code construction for any number of transmit antennas, a
matrix-inversion-free orthogonal symbol-by-symbol decoder, Gray-mapped
PSK/QAM modems, generalised fading generators, exact MGF-based BER and
hard-decision capacity analysis, and a reproducible Monte Carlo harness.
"""

from .codes import (
    CodeEntry,
    EncodingStructure,
    abba_manifold,
    build_mother,
    puncture,
    encode,
    gram_check,
    structure_to_text,
)
from .channels import (
    EncodedChannel,
    extend_channel,
    modify_channel,
    build_encoded_channel,
    encoded_channel_minors,
    augmented,
    apply_encoded_channel,
    symbolic_minors,
    minors_to_text,
)
from .decoder import (
    PermutationPair,
    ReducedChannel,
    FixedBasis,
    DecodeResult,
    ChainResult,
    DecompositionError,
    DegenerateChannelError,
    permutation_indexes,
    first_stage,
    reduce_channel,
    higher_order_reduce,
    symbol_order,
    channel_gram,
    fixed_basis,
    decode,
    decode_batch,
    chain_decode,
    combiner_weights,
    apply_combiner,
)
from .modem import Modulation, modulation, psk_distance_spectrum, count_bit_errors
from .fading import (
    BranchStat,
    m_to_hoyt_q,
    m_to_rice_k,
    sample_gain,
    linear_profile,
    severity_profile,
    add_awgn,
)
from .analysis import (
    BerParams,
    mgf,
    mgf_integral,
    psk_ber,
    qam_ber,
    qam_bit_coefficients,
    capacity,
    order_stat_mean,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    run_sweep,
    verify,
    capacity_sweep,
)

__version__ = "0.1.0"
