"""Clustered set reconciliation.

Two hosts holding sets of n-bit strings whose symmetric difference
forms up to t clusters of at most h strings, pairwise within Hamming
distance ell, exchange fixed-size syndrome digests in a single round
and each recovers the exact difference locally.
"""

from .bits import BitVector, Positions, hamming, place, project
from .bounds import (
    asymptotic_rates,
    baseline_bits,
    chromatic_bounds,
    entropy_q,
    sphere_size,
)
from .codes import BchCode, BhSequence, RsCode, bch_build, bh_sequence, rs_code
from .errors import (
    DecodingError,
    FrameError,
    InconsistentDigests,
    LinAlgError,
    ParamMismatch,
    ParamsError,
    ThlreconError,
)
from .gf2 import FieldSpec, ff_make
from .linalg import BinaryMatrix, full_rank_completion
from .maps_t import f_sum_decompose, gamma, map_E, map_M, map_f
from .oracle import gen_instance, oracle_is_thl, oracle_symdiff
from .params import (
    Digest,
    Params,
    digest_cost_bits,
    params_build,
    params_from_text,
)
from .protocol import (
    SessionStats,
    TcpTransport,
    Transport,
    decode_digests,
    encode_digest,
    parse_digest,
    serialize_digest,
    session_run,
)

__version__ = "0.1.0"

__all__ = [
    "BitVector", "Positions", "hamming", "project", "place",
    "FieldSpec", "ff_make",
    "BinaryMatrix", "full_rank_completion",
    "BchCode", "RsCode", "BhSequence", "bch_build", "rs_code", "bh_sequence",
    "Params", "params_build", "params_from_text",
    "Digest", "digest_cost_bits",
    "map_M", "map_E", "map_f", "f_sum_decompose", "gamma",
    "sphere_size", "entropy_q", "chromatic_bounds", "asymptotic_rates",
    "baseline_bits",
    "encode_digest", "decode_digests",
    "serialize_digest", "parse_digest", "session_run",
    "Transport", "TcpTransport", "SessionStats",
    "oracle_symdiff", "oracle_is_thl", "gen_instance",
    "ThlreconError", "ParamsError", "LinAlgError", "DecodingError",
    "InconsistentDigests", "ParamMismatch", "FrameError",
]
