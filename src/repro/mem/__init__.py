"""The memory plane: per-run budgets for the simulator's own RSS.

The virtual cluster models million-rank jobs inside one process, so the
reproduction's *own* resident memory — not the simulated bytes — is the
scaling limit (ROADMAP open item 2).  This package gives every run one
:class:`MemoryBudget` with subsystem-scoped :class:`MemoryAccount`\\ s
(``vfs``, ``trace``, ``darshan``, ``engine``), hard or advisory quotas,
high-water tracking, and ``mem`` trace events on watermark crossings.

Subsystems charge what they actually keep resident (materialised file
extents, retained events, counter tables, staging buffers) and release
on eviction/spill.  An account under pressure first asks its owner to
shed state (``on_pressure`` — e.g. the VFS spilling cold extents to a
real scratch file); a *hard* account that stays over quota raises
:class:`MemoryQuotaExceeded` so runs fail loudly instead of OOMing the
host.

The plane is deterministic: accounting never feeds back into the
performance model, virtual clocks, or RNG draws — two runs with
different quotas produce bit-identical simulation results (only
residency, spill, and ``mem`` events differ).
"""

from __future__ import annotations

from repro.mem.budget import (
    DEFAULT_WATERMARKS,
    MemoryAccount,
    MemoryBudget,
    MemoryQuotaExceeded,
    current_budget,
    fingerprint,
    installed_budget,
    set_budget,
    use_budget,
)
from repro.mem.spans import SplitValues, blocks, derive_block_size

__all__ = [
    "DEFAULT_WATERMARKS",
    "MemoryAccount",
    "MemoryBudget",
    "MemoryQuotaExceeded",
    "SplitValues",
    "blocks",
    "current_budget",
    "derive_block_size",
    "fingerprint",
    "installed_budget",
    "set_budget",
    "use_budget",
]
