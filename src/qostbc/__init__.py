"""Rate-one quasi-orthogonal space-time block codes.

Recursive code construction for any number of transmit antennas, a
matrix-inversion-free orthogonal symbol-by-symbol decoder, Gray-mapped
PSK/QAM modems, generalised fading generators, exact MGF-based BER and
hard-decision capacity analysis, and a reproducible Monte Carlo harness.
"""

from .codes import (
    EncodingStructure,
    walsh_basis,
    build_mother,
    puncture,
    encode,
)
from .channels import encoded_channel_minors, received_blocks
from .decoder import DegenerateChannelError, decode_batch
from .modem import Modulation, modulation, psk_distance_spectrum, count_bit_errors
from .fading import (
    BranchStat,
    m_to_hoyt_q,
    m_to_rice_k,
    sample_gain,
    sample_gains,
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
    bit_error_rate,
    capacity,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    permutation_indexes,
    SweepResult,
    run_sweep,
    verify,
    capacity_sweep,
)

__version__ = "0.1.0"
