"""Full-stack simulator benchmark: host invocations per second, by layer.

Drives four workloads through the real controller -> shim/bus -> node ->
invoker -> mem/unikernel -> sim stack and reports how many simulated
invocations the simulator completes per (calibrated) host second, what
the run costs to set up, and where the host time goes.  See README.md.

Run ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/run.py``.
"""
