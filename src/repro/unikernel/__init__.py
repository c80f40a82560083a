"""Unikernel context (UC) models.

A UC is the paper's unit of deployment: a Rumprun unikernel linked with
a language interpreter and an OpenWhisk invocation driver, isolated in
ring 3 above the SEUSS kernel and talking to it only through the Solo5
hypercall surface (:func:`~repro.unikernel.solo5.check_hypercall`,
crossed through :meth:`UnikernelContext.hypercall`).

The models here are behavioural: booting, initializing the interpreter,
starting the driver, importing code, and executing a function each write
the page extents the real stack writes (calibrated to Table 1's snapshot
sizes), into a :class:`repro.mem.AddressSpace`.
"""

from repro.unikernel.context import UCState, UnikernelContext
from repro.unikernel.interpreters import (
    NODEJS,
    PYTHON,
    RuntimeSpec,
    get_runtime,
    registered_runtimes,
)
from repro.unikernel.layout import MemoryLayout, Region
from repro.unikernel.solo5 import SOLO5_HYPERCALLS, check_hypercall

__all__ = [
    "MemoryLayout",
    "NODEJS",
    "PYTHON",
    "Region",
    "RuntimeSpec",
    "SOLO5_HYPERCALLS",
    "UCState",
    "UnikernelContext",
    "check_hypercall",
    "get_runtime",
    "registered_runtimes",
]
