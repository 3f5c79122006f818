"""Dithered uniform scalar quantization of random linear measurement maps.

The package builds quantized codes A(x) = Q(Phi x + dither) for several
fast measurement-operator families, estimates pairwise distances
directly from the integer codes (plain, squared, and two-dither product
estimators), and ships a Monte Carlo harness that measures the
multiplicative/additive distortion of those estimates against the true
distances, together with covering-number calculators that size the
embedding dimension.
"""

from .quantizer import (
    QuantConfig,
    SoftParam,
    quantize,
    sample_dither,
    soft_distance,
    premetric,
    soft_premetric,
)
from .linops import LinOp, RopOp, build, build_rop
from .embeddings import (
    CodeBlock,
    embed,
    embed_bidither,
    embed_rop,
    estimate_distance,
    serialize,
    deserialize,
)
from .modelsets import (
    ModelSet,
    sparse,
    group_sparse,
    low_rank,
    low_rank_joint_sparse,
    subspace_union,
    ball,
    finite_cloud,
    dict_sparse,
    sample_point,
    sample_pair,
    support_function,
    mean_width_mc,
    entropy_bound,
    required_m,
    ball_mean_width_exact,
)
from .verify import (
    DistortionRecord,
    QripFit,
    QripRun,
    check_dither_identity,
    estimate_rip,
    measure_qrip,
    measure_decay,
    fit_decay,
    check_product_concentration,
    selftest,
)
from .rng import stream

__version__ = "0.1.0"
