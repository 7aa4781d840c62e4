"""ADIOS2-like I/O framework: BP engines, aggregation, operators, profiling."""

from repro.adios2.aggregation import (
    AggregationPlan,
    gather_cost_seconds,
    plan_aggregation,
    two_level_gather_cost,
)
from repro.adios2.bp4 import BP3Engine, BP4Engine
from repro.adios2.bp5 import BP5Engine
from repro.adios2.engine import BPEngineBase, Engine, EngineConfig, IntegrityError
from repro.adios2.profiling import PROFILE_CATEGORIES, EngineProfile
from repro.adios2.sst import (
    SSTEngine,
    SSTReader,
    StagingBackpressure,
    StepData,
    StepStatus,
    StreamRegistry,
    assemble_variable,
    open_streams,
    reset_streams,
)
from repro.adios2.variables import (
    Attribute,
    Chunk,
    Variable,
    dtype_name,
    element_size,
    numpy_dtype,
)

#: file extension → engine class ("The file's extension dictates the
#: engine used by openPMD for data storage", §III-B)
ENGINES_BY_EXTENSION = {
    ".bp": BP4Engine,
    ".bp3": BP3Engine,
    ".bp4": BP4Engine,
    ".bp5": BP5Engine,
}


def engine_for_path(path: str):
    """Select the engine class from the output path's extension."""
    for ext, cls in sorted(ENGINES_BY_EXTENSION.items(), key=lambda kv: -len(kv[0])):
        if path.endswith(ext):
            return cls
    raise ValueError(
        f"no ADIOS2 engine for {path!r}; "
        f"known extensions: {sorted(ENGINES_BY_EXTENSION)}"
    )


__all__ = [
    "ENGINES_BY_EXTENSION",
    "PROFILE_CATEGORIES",
    "AggregationPlan",
    "Attribute",
    "BP3Engine",
    "BP4Engine",
    "BP5Engine",
    "BPEngineBase",
    "Chunk",
    "Engine",
    "SSTEngine",
    "SSTReader",
    "StagingBackpressure",
    "StepData",
    "StepStatus",
    "StreamRegistry",
    "assemble_variable",
    "EngineConfig",
    "EngineProfile",
    "IntegrityError",
    "Variable",
    "dtype_name",
    "element_size",
    "engine_for_path",
    "gather_cost_seconds",
    "numpy_dtype",
    "open_streams",
    "plan_aggregation",
    "reset_streams",
    "two_level_gather_cost",
]
