"""Rotation-invariant point-cloud descriptors with a learned shadow reference.

The pipeline: per-point local reference frames feed pairwise pose
descriptors; a shared "shadow" rotation augments them with global pose
context; an attention-based convolution layer consumes the descriptor
stacks; a Bingham distribution over unit quaternions supplies and adapts the
shadow rotation during training.

The construction is rotation invariant under joint rotations of the cloud
and its shadow.  The shadow is computed from the input's world coordinates,
so rotating the input alone, with its shadow recomputed, changes the
features: invariance to the input's own pose does not hold yet.
"""

from .bingham import (
    BinghamParams,
    BinghamSeed,
    NormalizationResult,
    birdal_V,
    entropy,
    lambda_from,
    mode,
    normalization,
    params_from_seed,
    sample,
)
from .descriptors import (
    MASK_PPF,
    MASK_SIPF,
    MASK_SIPF_NO_DIRECTION,
    ShadowCloud,
    detect_axis_alignment,
    detect_local_coincidence,
    shadow_of,
    sipf_field,
)
from .errors import (
    CoincidentPointError,
    DegenerateFrameError,
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidInputError,
    NumericError,
    ParseError,
    SamplerStallError,
    SipfError,
)
from .geometry import (
    NeighborGraph,
    PointCloud,
    Rotation3,
    UnitQuaternion,
    apply_rotation,
    knn_graph,
    matrix_to_quat,
    quat_to_matrix,
    random_rotation,
    rotation_from_axis_angle,
)
from .lrf import build_all_lrfs, input_descriptor
from .riattn import (
    RIAttnLayer,
    backward,
    layer_forward,
    total_loss,
)
from .training import ToyTaskConfig, make_wingtip_dataset, train_toy

__version__ = "0.1.0"
