"""Crowded-detection toolkit.

Core pieces: per-proposal ground-truth set assignment, a minimum-cost
set-matching loss over slot predictions, Set NMS (plus classic and soft
NMS), detection metrics (AP, log-average miss rate, Jaccard index,
crowd/sparse recall), JSONL scene I/O, and a seeded synthetic crowded-scene
harness for end-to-end studies.
"""

__version__ = "0.1.0"

from .assignment import GroundTruth, GtSet, build_gt_set, pad_to_k, truncate_top_k
from .emd import (EmdConfig, EmdMatch, PredictionSet, SlotPrediction,
                  emd_match, pair_cost_matrix)
from .geometry import (BBox, BoxDelta, GeometryError, boxes_to_array,
                       decode_delta, encode_delta, iou_matrix)
from .metrics import (EvalConfig, EvalReport, RecallStats, average_precision,
                      best_ji, density_stats, evaluate, jaccard_index, mr2,
                      recall_split)
from .scene_io import (PredictionRecord, SceneFileError, SceneRecord,
                       parse_prediction_file, parse_scene_file,
                       write_prediction_file, write_scene_file)
from .suppression import Detection, SuppressionConfig, nms, set_nms, soft_nms
from .synth import (DetectorSimParams, SceneGenerationError, SceneParams,
                    StudyRow, build_scenes, derive_seed, run_study,
                    simulate_detector)

__all__ = [
    "__version__",
    "GroundTruth", "GtSet", "build_gt_set", "pad_to_k", "truncate_top_k",
    "EmdConfig", "EmdMatch", "PredictionSet", "SlotPrediction", "emd_match",
    "pair_cost_matrix",
    "BBox", "BoxDelta", "GeometryError", "boxes_to_array", "decode_delta",
    "encode_delta", "iou_matrix",
    "EvalConfig", "EvalReport", "RecallStats", "average_precision", "best_ji",
    "density_stats", "evaluate", "jaccard_index", "mr2", "recall_split",
    "PredictionRecord", "SceneFileError", "SceneRecord",
    "parse_prediction_file", "parse_scene_file", "write_prediction_file",
    "write_scene_file",
    "Detection", "SuppressionConfig", "nms", "set_nms", "soft_nms",
    "DetectorSimParams", "SceneGenerationError", "SceneParams", "StudyRow",
    "build_scenes", "derive_seed", "run_study", "simulate_detector",
]
