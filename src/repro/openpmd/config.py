"""TOML-based dynamic configuration for openPMD series.

The paper's BIT1 integration uses "a TOML-based dynamic configuration
with a group-based iteration encoding with steps memory strategy"
(§III-B).  openPMD-api accepts a TOML/JSON options string at Series
construction; this module parses the subset the reproduction uses:

.. code-block:: toml

    [adios2.engine]
    type = "bp4"
    [adios2.engine.parameters]
    NumAggregators = 1          # OPENPMD_ADIOS2_BP5_NumAgg
    Profile = "On"
    [[adios2.dataset.operators]]
    type = "blosc"
    [iteration]
    encoding = "group_based_with_steps"

Environment-variable style overrides (``OPENPMD_ADIOS2_BP5_NumAgg``,
``OPENPMD_ADIOS2_HAVE_PROFILING``) are also honoured, matching §IV.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.adios2.engine import EngineConfig

ITERATION_ENCODINGS = ("group_based", "group_based_with_steps", "file_based")


@dataclass
class SeriesOptions:
    """Parsed, validated series configuration."""

    engine_type: str = "bp4"
    iteration_encoding: str = "group_based_with_steps"
    #: the knobs of every engine the series opens (validated there)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if self.iteration_encoding not in ITERATION_ENCODINGS:
            raise ValueError(
                f"unknown iteration encoding {self.iteration_encoding!r}; "
                f"choose from {ITERATION_ENCODINGS}"
            )

    def for_checkpoints(self) -> "SeriesOptions":
        """BIT1's checkpoint series writes one shared subfile unless the
        caller pinned an aggregator count (the "+ 1 AGGR" and striping
        studies do): the layout behind Table II's constant-size file."""
        if self.engine.num_aggregators is not None:
            return self
        return replace(self, engine=replace(self.engine, num_aggregators=1))


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    return str(value).strip().lower() in ("1", "on", "true", "yes")


def parse_options(options: str | Mapping[str, Any] | None = None,
                  env: Mapping[str, str] | None = None) -> SeriesOptions:
    """Parse a TOML string / dict plus optional environment overrides."""
    if options is None:
        data: dict = {}
    elif isinstance(options, str):
        data = tomllib.loads(options)
    else:
        data = dict(options)

    adios2 = data.get("adios2", {})
    engine = adios2.get("engine", {})
    params = engine.get("parameters", {})
    engine_type = str(engine.get("type", "bp4")).lower()

    num_agg = None
    for key in ("NumAggregators", "NumSubFiles", "numaggregators"):
        if key in params:
            num_agg = params[key]
            break

    profiling = _as_bool(params.get("Profile", False))

    compressor = None
    dataset = adios2.get("dataset", {})
    operators = dataset.get("operators", [])
    if operators:
        compressor = operators[0].get("type")

    encoding = str(
        data.get("iteration", {}).get("encoding", "group_based_with_steps")
    )

    if env:
        if "OPENPMD_ADIOS2_BP5_NumAgg" in env:
            num_agg = env["OPENPMD_ADIOS2_BP5_NumAgg"]
        if "OPENPMD_ADIOS2_HAVE_PROFILING" in env:
            profiling = _as_bool(env["OPENPMD_ADIOS2_HAVE_PROFILING"])

    return SeriesOptions(
        engine_type=engine_type,
        iteration_encoding=encoding,
        engine=EngineConfig(
            num_aggregators=num_agg,
            compressor=compressor,
            profiling=profiling,
            async_drain=_as_bool(params.get("AsyncWrite", False)),
            buffer_chunk_size=params.get("BufferChunkSize"),
            host_memory_bound=params.get("MaxShmSize"),
            rank_block_size=params.get("RankBlockSize"),
            profile_granularity=params.get("ProfileGranularity", "rank"),
        ),
    )


#: the configuration §III-B describes, ready to paste into examples
BIT1_DEFAULT_TOML = """
[adios2.engine]
type = "bp4"

[iteration]
encoding = "group_based_with_steps"
"""

BIT1_BLOSC_TOML = """
[adios2.engine]
type = "bp4"

[[adios2.dataset.operators]]
type = "blosc"

[iteration]
encoding = "group_based_with_steps"
"""
