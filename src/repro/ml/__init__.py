"""Shared ML data layer: features, samples, batching, dataset builder."""

from repro.ml.batch import (
    DEFAULT_ENDPOINT_BATCH,
    EndpointBatchSampler,
    PackedBatch,
)
from repro.ml.dataset import (
    DesignInputs,
    boot_designs,
    build_corner_samples,
    build_dataset,
    build_dataset_report,
    build_design_inputs,
    build_inputs,
    build_level_plans,
    build_sample,
    load_or_build_sample,
    load_or_build_samples,
    sample_cache_path,
)
from repro.ml.features import (
    CELL_FEATURE_DIM,
    NET_FEATURE_DIM,
    FeatureShapeError,
    cell_feature_row,
    chunk_feature_block,
    net_feature_row,
    net_output_load,
    node_features,
    validate_node_features,
)
from repro.ml.parallel import (
    BuildReport,
    DesignBuildStatus,
    run_design_tasks,
)
from repro.ml.sample import DesignSample, LevelPlan

__all__ = [
    "DEFAULT_ENDPOINT_BATCH",
    "EndpointBatchSampler",
    "PackedBatch",
    "DesignInputs",
    "boot_designs",
    "build_corner_samples",
    "build_dataset",
    "build_dataset_report",
    "build_design_inputs",
    "build_inputs",
    "build_level_plans",
    "build_sample",
    "load_or_build_sample",
    "load_or_build_samples",
    "sample_cache_path",
    "CELL_FEATURE_DIM",
    "NET_FEATURE_DIM",
    "FeatureShapeError",
    "cell_feature_row",
    "chunk_feature_block",
    "net_feature_row",
    "net_output_load",
    "node_features",
    "validate_node_features",
    "BuildReport",
    "DesignBuildStatus",
    "run_design_tasks",
    "DesignSample",
    "LevelPlan",
]
