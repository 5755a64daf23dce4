"""The paper's seven workloads, rebuilt as execution-driven programs.

Hand-parallelized (Section 3.2.1): Eqntott, MP3D, Ocean, Volpack.
Compiler-parallelized (Section 3.2.2): Ear, FFT.
Multiprogramming + OS (Section 3.2.3): two parallel makes of gcc-style
compile jobs with synthetic kernel activity.

Each module provides a ``make(n_cpus, functional, scale)`` factory; the
:data:`WORKLOADS` registry maps the paper's workload names to those
factories for the experiment harness.
"""

from repro.workloads.base import ThreadContext, Workload
from repro.workloads.layout import AddressSpace

from repro.workloads import eqntott as _eqntott
from repro.workloads import mp3d as _mp3d
from repro.workloads import ocean as _ocean
from repro.workloads import volpack as _volpack
from repro.workloads import ear as _ear
from repro.workloads import fft as _fft
from repro.workloads import multiprog as _multiprog
from repro.workloads import synthetic as _synthetic

#: Workload name -> factory(n_cpus, functional, scale) registry. The
#: paper's seven applications plus the tunable synthetic workload
#: (repro.workloads.synthetic) for controlled design-space studies.
WORKLOADS = {
    "eqntott": _eqntott.make,
    "mp3d": _mp3d.make,
    "ocean": _ocean.make,
    "volpack": _volpack.make,
    "ear": _ear.make,
    "fft": _fft.make,
    "multiprog": _multiprog.make,
    "synthetic": _synthetic.make,
}

__all__ = [
    "AddressSpace",
    "ThreadContext",
    "Workload",
    "WORKLOADS",
]
