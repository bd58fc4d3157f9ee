"""Cycle-accurate cost model of the FPGA encoder datapath (Fig. 9)."""

from repro.hardware.adder_tree import (
    accumulator_width_bits,
    adder_count,
    tree_depth,
    tree_latency_cycles,
)
from repro.hardware.datapath import (
    DEFAULT_ACCUMULATE_LANES,
    DEFAULT_BIND_LANES,
    DatapathConfig,
)
from repro.hardware.encoder_cost import (
    encoding_cycles,
    encoding_seconds,
    relative_encoding_time,
    relative_time_series,
)
from repro.hardware.inference_cost import (
    inference_cycles,
    similarity_cycles,
    throughput_samples_per_second,
)
from repro.hardware.memory_model import (
    BRAM36_BITS,
    MemoryBank,
    ModelFootprint,
    key_to_model_ratio,
    model_footprint,
)
from repro.hardware.pipeline import (
    EncoderSchedule,
    PipelineStage,
    encoder_stages,
    schedule_encoder,
)
from repro.hardware.report import (
    ResourceReport,
    estimate_resources,
    render_resource_table,
)

__all__ = [
    "DatapathConfig",
    "DEFAULT_ACCUMULATE_LANES",
    "DEFAULT_BIND_LANES",
    "tree_depth",
    "adder_count",
    "accumulator_width_bits",
    "tree_latency_cycles",
    "MemoryBank",
    "ModelFootprint",
    "model_footprint",
    "key_to_model_ratio",
    "BRAM36_BITS",
    "PipelineStage",
    "EncoderSchedule",
    "encoder_stages",
    "schedule_encoder",
    "encoding_cycles",
    "encoding_seconds",
    "relative_encoding_time",
    "relative_time_series",
    "similarity_cycles",
    "inference_cycles",
    "throughput_samples_per_second",
    "ResourceReport",
    "estimate_resources",
    "render_resource_table",
]
