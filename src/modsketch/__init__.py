"""modsketch: linear sketching over F2, Z_p and finite abelian groups,
one-way protocol simulation, and an exactly verified protocol-to-sketch
compiler with Nisan-style derandomized streaming execution."""

__version__ = "0.1.0"

from .algebra import (
    GroupSpec,
    SubgroupEnum,
    SubspaceF2,
    max_independent_subset,
    orthogonal_complement,
    rank_basis,
)
from .fourier import (
    DenseFunction,
    NormalizedIndicator,
    Spectrum,
    annihilator,
    chang_sum,
    convolve,
    extract_dissociated,
    inverse_transform,
    mixing_gap,
    normalized_indicator,
    transform,
)
from .sketch import (
    Distribution,
    HInvariantSketch,
    LinearJuntaF2,
    RandomizedSketch,
    SketchState,
    ZpJunta,
    apply_stream,
    approx_error,
    deserialize_sketch,
    eval_sketch,
    serialize_sketch,
    success_probability,
)
from .protocol import (
    AdditiveFunction,
    BroadcastProtocol,
    StreamFSM,
    Transcript,
    additive_lift,
    fsm_to_players,
    run_smp,
)
from .compiler import (
    ReductionConfig,
    ReductionReport,
    minimax_boost,
    reduce,
)
from .prg import (
    FSMSpec,
    NisanGenerator,
    RowTemplate,
    derandomized_apply,
    fsm_distance,
)
