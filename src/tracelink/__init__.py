"""Traceability-recovery engine.

Ranks candidate trace links between high-level source artifacts and
low-level target artifacts by enriching both with consensual biterms
centred on intermediate artifacts, and by adjusting IR similarity scores
along deduced outer- and inner-transitive link paths.
"""

from .corpus.manifest import load_dataset
from .pipeline import PipelineConfig, run_ablation, run_pipeline

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "load_dataset", "run_ablation", "run_pipeline"]
