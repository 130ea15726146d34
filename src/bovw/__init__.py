"""Bag-of-visual-words image representation and dictionary experiments.

Pipeline: dense-grid SIFT descriptors -> randomly sampled visual dictionary
-> per-point word assignment (hard or Gaussian soft) -> pooling (max or
average) -> linear one-vs-rest SVM. The harness layer reruns the pipeline
under seeded protocols to measure how dictionary source and class diversity
affect classification accuracy.
"""

from .classifier import (
    LinearModel,
    TrainConfig,
    accuracy,
    load_model,
    save_model,
    train_ovr,
)
from .codebook import (
    Codebook,
    build_random_codebook,
    load_codebook,
    save_codebook,
)
from .corpus import (
    DatasetManifest,
    Image,
    ManifestEntry,
    load_image,
    load_manifest,
    save_image,
    save_manifest,
    select_classes,
)
from .encoding import (
    BowVector,
    EncodingParams,
    encode_image,
    hard_assign,
    load_bows,
    save_bows,
    soft_assign,
)
from .features import (
    DescriptorSet,
    GridParams,
    dense_grid,
    extract_dense_sift,
)
from .harness import (
    DescriptorStore,
    PipelineParams,
    SplitSpec,
    SummaryRow,
    TrialResult,
    confidence_interval,
    cross_base_experiment,
    diversity_sweep,
    run_trial,
    split_balanced,
    write_summary_csv,
)

__version__ = "0.1.0"
