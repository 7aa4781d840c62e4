"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.machine import Machine
from repro.cluster.presets import machine_by_name
from repro.util.tables import Table


@dataclass
class SeriesResult:
    """One plotted line: (x, y) pairs plus identity."""

    label: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)

    def add(self, x, y) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x):
        return self.ys[self.xs.index(x)]

    def peak(self) -> tuple:
        """(x, y) of the maximum y."""
        i = max(range(len(self.ys)), key=lambda j: self.ys[j])
        return self.xs[i], self.ys[i]


@dataclass
class ExperimentResult:
    """A whole figure/table: named series over a shared x axis."""

    name: str
    x_name: str
    series: list[SeriesResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def get(self, label: str) -> SeriesResult:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"{self.name} has no series {label!r}; "
                       f"available: {[s.label for s in self.series]}")

    def to_table(self, y_format: Callable = lambda v: f"{v:.3f}") -> Table:
        xs = self.series[0].xs if self.series else []
        table = Table([self.x_name, *[s.label for s in self.series]],
                      title=self.name)
        for i, x in enumerate(xs):
            table.add_row([x, *[y_format(s.ys[i]) for s in self.series]])
        return table

    def render(self, y_format: Callable = lambda v: f"{v:.3f}") -> str:
        out = self.to_table(y_format).render()
        if self.notes:
            out += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return out


@dataclass
class TableResult:
    """A rendered table and the measured values its check reads."""

    text: str
    values: dict = field(default_factory=dict)

    def render(self) -> str:
        return self.text


def resolve_machine(machine: str | Machine) -> Machine:
    if isinstance(machine, Machine):
        return machine
    return machine_by_name(machine)


def subset(values: Sequence, quick: bool) -> tuple:
    """Reduced sweep for quick/test runs: endpoints plus the middle."""
    values = tuple(values)
    if not quick or len(values) <= 3:
        return values
    return (values[0], values[len(values) // 2], values[-1])


def write_artifact(path: str, doc: dict) -> None:
    """Write a driver's result artifact as sorted, indented JSON (the
    committed ``results/*.json`` layout), creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
