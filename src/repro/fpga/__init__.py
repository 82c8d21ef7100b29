"""Cycle-approximate FPGA simulator: device model, kernel, engine."""

from repro.fpga.config import SLOT_ENTRY_BYTES, FpgaConfig
from repro.fpga.cycles import (
    l_basic,
    l_sep,
    l_serial,
    l_task,
    predicted_speedup_sep_over_task,
    predicted_speedup_task_over_basic,
)
from repro.fpga.engine import VARIANTS, FastEngine
from repro.fpga.fifo import Fifo
from repro.fpga.kernel import MatchPlan, build_plan
from repro.fpga.pipeline import (
    chained,
    overlapped,
    pipelined_cycles,
    serial_cycles,
)
from repro.fpga.report import KernelReport
from repro.fpga.resources import (
    ResourceEstimate,
    estimate_resources,
    resource_table,
)

__all__ = [
    "FastEngine",
    "Fifo",
    "FpgaConfig",
    "KernelReport",
    "MatchPlan",
    "ResourceEstimate",
    "SLOT_ENTRY_BYTES",
    "VARIANTS",
    "build_plan",
    "chained",
    "estimate_resources",
    "l_basic",
    "l_sep",
    "l_serial",
    "l_task",
    "overlapped",
    "pipelined_cycles",
    "resource_table",
    "predicted_speedup_sep_over_task",
    "predicted_speedup_task_over_basic",
    "serial_cycles",
]
