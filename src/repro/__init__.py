"""repro — Evaluation of Design Alternatives for a Multiprocessor Microprocessor.

An execution-driven Python reproduction of Nayfeh, Hammond & Olukotun's
ISCA 1996 study of where to interconnect the CPUs of a multiprocessor
microprocessor: at the L1 cache, the L2 cache, or main memory.

The public surface:

* :mod:`repro.core` — configurations (paper Table 2), the
  :class:`~repro.core.system.System` builder, the experiment matrix,
  the process-parallel cache-aware runner
  (:mod:`repro.core.runner`), sweeps, reports and SVG figures;
* :mod:`repro.workloads` — the paper's seven applications and the base
  classes for writing new ones;
* :mod:`repro.cpu` — the Mipsy (simple) and MXS (dynamic superscalar)
  CPU models;
* :mod:`repro.mem` — composable machine topologies
  (:mod:`repro.mem.topology`): the paper's three architectures plus
  the scenario presets, all built from declarative specs, and their
  building blocks;
* :mod:`repro.sync` — LL/SC locks, barriers and task queues;
* :mod:`repro.trace` — trace capture and replay (trace-driven mode).

Quickstart::

    from repro.core import Job, normalized_times, run_architecture_comparison

    job = Job(arch="shared-mem", workload="eqntott", scale="test")
    results = run_architecture_comparison(job)
    print(normalized_times(results))
"""

__version__ = "1.32.0"

__all__ = ["__version__"]
