"""Workload abstraction.

A :class:`WorkloadInstance` is a single-use executable application: a
sequence of kernel calls over live NumPy arrays (the driver may inspect
array contents between calls, e.g. BFS frontier emptiness), plus a NumPy
reference implementation for output validation.

Instances are consumed by one simulation run — build a fresh one per run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from ..errors import ConfigError
from ..ir.program import Kernel, MemObject

#: registry of workload short-name -> Workload subclass instance
_REGISTRY: Dict[str, "Workload"] = {}


@dataclass
class KernelCall:
    """One invocation of a kernel with concrete scalar arguments."""

    kernel: Kernel
    scalars: Dict[str, float] = field(default_factory=dict)


class WorkloadInstance:
    """A built, runnable application instance."""

    def __init__(self, name: str, short: str,
                 objects: Dict[str, MemObject],
                 arrays: Dict[str, np.ndarray],
                 outputs: List[str],
                 schedule: Callable[["WorkloadInstance"], Iterator[KernelCall]],
                 reference: Callable[[Dict[str, np.ndarray]],
                                     Dict[str, np.ndarray]],
                 host_insts_per_call: int = 50,
                 host_accesses_per_call: int = 4,
                 atol: float = 1e-4,
                 serial_fraction: float = 0.0):
        self.name = name
        self.short = short
        self.objects = objects
        self.arrays = arrays
        self.outputs = outputs
        self._schedule = schedule
        self._reference = reference
        self.host_insts_per_call = host_insts_per_call
        self.host_accesses_per_call = host_accesses_per_call
        self.atol = atol
        #: fraction of misses on a loop-carried dependence chain (pointer
        #: chasing) that no amount of OoO MLP can overlap
        self.serial_fraction = serial_fraction
        self._initial = {k: v.copy() for k, v in arrays.items()}
        self._consumed = False

    def calls(self) -> Iterator[KernelCall]:
        if self._consumed:
            raise ConfigError(
                f"workload instance {self.name!r} already consumed; "
                "build a fresh one per simulation run"
            )
        self._consumed = True
        return self._schedule(self)

    def reference_outputs(self) -> Dict[str, np.ndarray]:
        """Golden outputs computed by the NumPy implementation from the
        *initial* array contents."""
        inputs = {k: v.copy() for k, v in self._initial.items()}
        return self._reference(inputs)

    def validate(self, golden: Optional[Dict[str, np.ndarray]] = None
                 ) -> bool:
        """Compare current array state against the NumPy reference
        (``golden``: precomputed :meth:`reference_outputs`)."""
        if golden is None:
            golden = self.reference_outputs()
        for name in self.outputs:
            if name not in golden:
                raise ConfigError(f"reference lacks output {name!r}")
            if not np.allclose(self.arrays[name], golden[name],
                               atol=self.atol, rtol=1e-3, equal_nan=True):
                return False
        return True


class Workload(abc.ABC):
    """Factory for workload instances at a given scale."""

    #: long name, e.g. "disparity"
    name: str = ""
    #: Table VI short name, e.g. "dis"
    short: str = ""

    @abc.abstractmethod
    def build(self, scale: str = "small") -> WorkloadInstance:
        """Build a fresh instance. ``scale``: "tiny" (tests), "small"
        (benchmarks), "large" (sensitivity studies)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)


def register(workload: Workload) -> Workload:
    if not workload.short:
        raise ConfigError(f"workload {workload!r} lacks a short name")
    _REGISTRY[workload.short] = workload
    return workload


def workload_registry() -> Dict[str, Workload]:
    return dict(_REGISTRY)


def scale_dims(scale: str, tiny: int, small: int, large: int) -> int:
    """Pick a dimension for the given scale name."""
    try:
        return {"tiny": tiny, "small": small, "large": large}[scale]
    except KeyError:
        raise ConfigError(f"unknown scale {scale!r}") from None
