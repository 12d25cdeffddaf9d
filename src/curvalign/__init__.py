"""Curvature-regularized two-view representation learning at desk scale."""

from .data import (
    AugmentationPolicy,
    BatchPlan,
    Dataset,
    augment_view,
    batches,
    load_idx,
    make_blobs,
    make_pattern_images,
    make_ring,
    save_dataset_csv,
    save_idx,
    stream,
)
from .geometry import (
    EdgeBundle,
    NeighborGraph,
    batch_curvature,
    curvature_score,
    edge_bundle,
    knn_euclidean,
)
from .losses import (
    LossBreakdown,
    Weights,
    barlow_loss,
    cross_correlation,
    curvature_loss,
    curvature_matrix,
    curvature_penalty,
    standardize_features,
    standardize_scores,
    total_loss,
    total_loss_arrays,
)
from .model import (
    Architecture,
    Checkpoint,
    encode,
    init_params,
    load_checkpoint,
    project,
    save_checkpoint,
)
from .numerics import (
    GradReport,
    Graph,
    Var,
    eval_primitive,
    finite_diff_check,
    reverse_grad,
)
from .rkhs import (
    KernelSpec,
    kernel_curvature_score,
    kernel_eval,
    knn_rkhs,
    median_heuristic_gamma,
    normalized_gram,
    rkhs_distance,
)
from .trainer import (
    AdamState,
    History,
    TrainConfig,
    adam_step,
    export_embeddings,
    linear_probe,
    pretrain,
    top1_accuracy,
)

__version__ = "0.1.0"
