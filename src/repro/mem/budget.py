"""MemoryBudget / MemoryAccount — quota-guarded residency accounting.

Accounts measure the simulator's host-resident bytes per subsystem.
Charging is cheap (two adds and a comparison on the no-pressure path)
so hot paths can account per-allocation; watermark bookkeeping only
runs while an account actually approaches its quota.
"""

from __future__ import annotations

import contextlib

#: Quota fractions at which an account emits one ``mem`` event per
#: upward crossing (re-armed when usage falls back below the mark).
DEFAULT_WATERMARKS = (0.5, 0.9, 1.0)

#: The canonical subsystem account names (others are allowed).
SUBSYSTEMS = ("vfs", "trace", "darshan", "engine", "resilience", "serving",
              "gpu")


class MemoryQuotaExceeded(MemoryError):
    """A hard account stayed over quota after its owner shed state."""

    def __init__(self, account: "MemoryAccount", requested: int):
        self.account = account
        self.requested = int(requested)
        super().__init__(
            f"memory account {account.name!r} over hard quota: "
            f"used {account.used} + requested {self.requested} B "
            f"> quota {account.quota} B (high water {account.high_water} B)")


class MemoryAccount:
    """Resident-byte ledger for one subsystem.

    ``charge``/``release`` track bytes the subsystem keeps alive.  When
    a charge pushes usage over ``quota``, the owner's ``on_pressure``
    callback (if any) runs once to shed state — spill extents, evict
    closed file records, drop ring-buffer tails — and then usage is
    re-checked: a ``hard`` account raises :class:`MemoryQuotaExceeded`,
    an advisory one just records the overshoot in ``high_water``.
    """

    __slots__ = ("name", "budget", "quota", "hard", "used", "high_water",
                 "spilled_bytes", "on_pressure", "_armed")

    def __init__(self, name: str, budget: "MemoryBudget",
                 quota: int | None = None, hard: bool = False):
        self.name = name
        self.budget = budget
        self.quota = None if quota is None else int(quota)
        self.hard = bool(hard)
        self.used = 0
        self.high_water = 0
        self.spilled_bytes = 0
        self.on_pressure = None
        self._armed = set(budget.watermarks)

    # -- ledger ---------------------------------------------------------

    def charge(self, nbytes: int) -> None:
        """Account ``nbytes`` of newly resident state."""
        n = int(nbytes)
        if n <= 0:
            return
        self.used += n
        if self.used > self.high_water:
            self.high_water = self.used
            if self.budget._high_water < self.budget.used:
                self.budget._high_water = self.budget.used
        if self.quota is not None:
            if self.used > self.quota and self.on_pressure is not None:
                self.on_pressure(self, n)
            if self.used > self.quota and self.hard:
                self.used -= n
                raise MemoryQuotaExceeded(self, n)
            self._note_watermarks()

    def release(self, nbytes: int) -> None:
        """Account ``nbytes`` of state no longer resident."""
        n = int(nbytes)
        if n <= 0:
            return
        self.used = max(0, self.used - n)
        if self.quota is not None:
            quota = self.quota
            for frac in self.budget.watermarks:
                if frac not in self._armed and self.used < frac * quota:
                    self._armed.add(frac)

    def note_spill(self, nbytes: int) -> None:
        """Record bytes moved from residency to spill storage."""
        self.spilled_bytes += int(nbytes)

    @property
    def headroom(self) -> int | None:
        """Bytes left under quota (None when unlimited)."""
        if self.quota is None:
            return None
        return max(0, self.quota - self.used)

    @property
    def over_quota(self) -> bool:
        return self.quota is not None and self.used > self.quota

    # -- watermark events -----------------------------------------------

    def _note_watermarks(self) -> None:
        bus = self.budget.bus
        quota = self.quota
        for frac in sorted(self._armed):
            if self.used >= frac * quota:
                self._armed.discard(frac)
                if bus is not None and bus.wants("mem"):
                    bus.emit(
                        "mem", [0], nbytes=self.used,
                        n_ops=max(1, int(frac * 100)),
                        api=self.name.upper(), layer="mem")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MemoryAccount({self.name!r}, used={self.used}, "
                f"high_water={self.high_water}, quota={self.quota}, "
                f"spilled={self.spilled_bytes})")


class MemoryBudget:
    """Per-run memory plane: named accounts under one roof.

    ``quotas`` maps account names to byte limits; ``hard`` lists the
    accounts that raise on sustained overshoot.  ``total`` is an
    advisory whole-run target used to derive rank-block sizes (see
    :func:`repro.mem.spans.derive_block_size`); enforcement is always
    per-account.
    """

    def __init__(self, total: int | None = None,
                 quotas: dict[str, int] | None = None,
                 hard: tuple[str, ...] = (),
                 watermarks: tuple[float, ...] = DEFAULT_WATERMARKS,
                 bus=None):
        self.total = None if total is None else int(total)
        self.watermarks = tuple(sorted(float(w) for w in watermarks))
        self.bus = bus
        self._quotas = {k: int(v) for k, v in (quotas or {}).items()}
        self._hard = tuple(hard)
        self._accounts: dict[str, MemoryAccount] = {}
        self._high_water = 0

    def account(self, name: str) -> MemoryAccount:
        """The named account, created on first use."""
        acct = self._accounts.get(name)
        if acct is None:
            acct = MemoryAccount(name, self,
                                 quota=self._quotas.get(name),
                                 hard=name in self._hard)
            self._accounts[name] = acct
        return acct

    def attach(self, bus) -> "MemoryBudget":
        """Emit ``mem`` watermark events onto ``bus``; returns self."""
        self.bus = bus
        return self

    @property
    def used(self) -> int:
        return sum(a.used for a in self._accounts.values())

    @property
    def has_quotas(self) -> bool:
        """True when some account has a quota (and so may emit ``mem``
        watermark events as it is charged)."""
        return bool(self._quotas)

    @property
    def high_water(self) -> int:
        """Largest whole-budget usage observed."""
        return self._high_water

    @property
    def accounts(self) -> dict[str, MemoryAccount]:
        return dict(self._accounts)

    def config(self) -> dict:
        """Canonical, hashable description (for cache fingerprints)."""
        return {
            "total": self.total,
            "quotas": dict(sorted(self._quotas.items())),
            "hard": sorted(self._hard),
            "watermarks": list(self.watermarks),
        }

    def report(self) -> dict:
        """Usage snapshot: per-account used/high-water/spilled bytes."""
        return {
            name: {"used": a.used, "high_water": a.high_water,
                   "quota": a.quota, "spilled_bytes": a.spilled_bytes}
            for name, a in sorted(self._accounts.items())
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"MemoryBudget(total={self.total}, "
                f"accounts={sorted(self._accounts)})")


#: The ambient process-default budget: unlimited accounts, so code that
#: charges unconditionally stays cheap and behaviour-neutral when no
#: run-scoped budget is installed.
_DEFAULT = MemoryBudget()
_current = _DEFAULT


def current_budget() -> MemoryBudget:
    """The ambient budget (process default unless one was installed)."""
    return _current


def installed_budget() -> MemoryBudget | None:
    """The budget installed with :func:`use_budget` or :func:`set_budget`,
    None while the process default is ambient."""
    return None if _current is _DEFAULT else _current


def set_budget(budget: MemoryBudget | None) -> MemoryBudget:
    """Install ``budget`` as ambient (None restores the default)."""
    global _current
    _current = _DEFAULT if budget is None else budget
    return _current


@contextlib.contextmanager
def use_budget(budget: MemoryBudget):
    """Scope an ambient budget to a ``with`` block."""
    prev = _current
    set_budget(budget)
    try:
        yield budget
    finally:
        set_budget(prev)


def fingerprint() -> dict:
    """Memory-plane config of the ambient budget (for sweep keys)."""
    return _current.config()
