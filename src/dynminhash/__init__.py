"""Dynamic MinHash sketches for fully-dynamic update streams with recovery.

The package provides:

- ``hashing``: seeded tabulation-hash families and pairwise hashes;
- ``core``: the buffered k-MinHash sketch (exact signatures under arbitrary
  insert/delete streams, recovery-based rebuilds on rare faults);
- ``baselines``: the argmin-only Vanilla sketch and the counter-matrix
  sketches used as competitors;
- ``similarity``: Jaccard estimation and exact oracles;
- ``lsh``: banding over signatures for all-candidate-pairs queries;
- ``streams``: the stream model, set store, generators and graph loaders;
- ``bench`` / ``cli``: the experiment harness (``dynminhash-bench``).
"""

from .baselines import BssProactiveSketch, BssSketch, VanillaSketch
from .core import TOP, BufferedSketch, Signature, make_key, split_key
from .errors import (
    BandingInfeasibleError,
    EmptyRowError,
    EmptySetError,
    IllegalStreamError,
    RecoveryError,
)
from .hashing import (
    MAX_UNIVERSE,
    HashFamily,
    PairwiseHash,
    TabulationHash,
    new_family,
    new_pairwise,
)
from .lsh import AcpScore, BandingParams, LshIndex, candidate_probability, choose_banding, score_acp
from .similarity import SimilarityEstimate, estimate_jaccard, exact_jaccard, rmse
from .streams import (
    PairGenConfig,
    QueryEvent,
    SetStore,
    StreamOp,
    gen_correlated_pair,
    gen_mixed_workload,
    gen_uniform_stream,
    load_graph_balls,
    read_stream,
    write_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AcpScore",
    "BandingInfeasibleError",
    "BandingParams",
    "BssProactiveSketch",
    "BssSketch",
    "BufferedSketch",
    "EmptyRowError",
    "EmptySetError",
    "HashFamily",
    "IllegalStreamError",
    "LshIndex",
    "MAX_UNIVERSE",
    "PairGenConfig",
    "PairwiseHash",
    "QueryEvent",
    "RecoveryError",
    "SetStore",
    "Signature",
    "SimilarityEstimate",
    "StreamOp",
    "TOP",
    "TabulationHash",
    "VanillaSketch",
    "candidate_probability",
    "choose_banding",
    "estimate_jaccard",
    "exact_jaccard",
    "gen_correlated_pair",
    "gen_mixed_workload",
    "gen_uniform_stream",
    "load_graph_balls",
    "make_key",
    "new_family",
    "new_pairwise",
    "read_stream",
    "rmse",
    "score_acp",
    "split_key",
    "write_stream",
]
