"""Multiprogramming + OS workload (paper Section 3.2.3).

The paper's program-development workload: the compile phase of the
Modified Andrew Benchmark under a parallel make — two makes launched
together, each allowing four concurrent gcc compilations. The defining
properties, all reproduced here:

* **independent processes** — each compile job runs in its own address
  space (no user-level sharing at all);
* **shared program text** — every job executes the same gcc image, and
  its instruction working set (lexer, parser, optimizer, code
  generator, plus kernel text) is much larger than the I-cache, making
  instruction stalls a visible fraction of time (9-10% in Figure 10);
* **small per-process data working sets** — the paper notes the OS
  processes' data fits comfortably in the 64 KB shared L1, so the
  shared-L1 architecture surprisingly does *not* suffer extra
  replacement misses;
* **kernel activity** — 16% of non-idle time in the kernel, whose data
  is genuinely shared across CPUs (run queue, buffer cache).

Each CPU runs its share of the job list back to back, as a static
schedule of the two four-way makes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.mem.functional import FunctionalMemory
from repro.workloads.base import Workload
from repro.workloads.kernel import KernelActivity
from repro.workloads.layout import KERNEL_BASE, AddressSpace

_WORD = 4

#: scale -> (jobs, chunks per job, symtab words, functions, function slots)
_SCALES = {
    "test": (4, 3, 48, 6, 48),
    "bench": (8, 12, 96, 12, 96),
    "paper": (8, 60, 768, 24, 384),
}

#: Passes over each function body per visit: the loop/straight-line mix
#: that sets the instruction-stall share (the paper measures 9-10%).
_PASSES = 5

#: Address-space stride between processes (distinct "physical" pages),
#: plus a per-process colour offset so different processes' pages do
#: not land on identical cache sets (real page allocation scatters
#: physical frames; a pure power-of-two stride would alias every
#: process in a direct-mapped L2).
_PROCESS_STRIDE = 1 << 24
_PROCESS_COLOUR = 0x9400


class MultiprogWorkload(Workload):
    """Two parallel makes of gcc-style compile jobs + kernel activity."""

    name = "multiprog"

    def __init__(
        self,
        n_cpus: int,
        functional: FunctionalMemory,
        scale: str = "test",
        seed: int = 42,
    ) -> None:
        super().__init__(n_cpus, functional)
        try:
            (
                self.n_jobs,
                self.chunks,
                self.symtab_words,
                self.n_functions,
                self.function_slots,
            ) = _SCALES[scale]
        except KeyError:
            raise WorkloadError(f"unknown scale {scale!r}") from None
        self.scale = scale

        # gcc text: one shared image (IRIX shares text pages between
        # instances of the same binary). Phases walk distinct function
        # groups so the fetch stream sweeps the whole footprint.
        self.functions = [
            self.code.region(f"gcc.fn{i}", self.function_slots)
            for i in range(self.n_functions)
        ]

        # Kernel image and kernel data are shared by everyone.
        kernel_space = AddressSpace(base=KERNEL_BASE)
        self.kernel = KernelActivity(self.code, kernel_space)

        # Per-process private data: input text, symbol table, AST pool,
        # output buffer — in disjoint address spaces.
        self.proc_spaces = [
            AddressSpace(
                base=self.data.base
                + (j + 1) * _PROCESS_STRIDE
                + j * _PROCESS_COLOUR
            )
            for j in range(self.n_jobs)
        ]
        self.inputs = []
        self.symtabs = []
        self.asts = []
        self.outputs = []
        for space in self.proc_spaces:
            # Small pads keep the four arrays off each other's cache
            # sets (malloc'd heap objects are not set-aligned).
            self.inputs.append(space.alloc_array(self.symtab_words, _WORD))
            space.alloc(96)
            self.symtabs.append(space.alloc_array(self.symtab_words, _WORD))
            space.alloc(160)
            self.asts.append(space.alloc_array(self.symtab_words, _WORD))
            space.alloc(224)
            self.outputs.append(space.alloc_array(self.symtab_words, _WORD))

        # Per-job pseudo-random symbol-lookup traces (hash-table probes).
        rng = np.random.default_rng(seed)
        self.lookup_traces = rng.integers(
            0,
            self.symtab_words,
            size=(self.n_jobs, self.chunks, 24),
        )

    # ------------------------------------------------------------------

    def _compile_job(self, ctx, job: int):
        """One gcc invocation: lex -> parse -> optimize -> emit."""
        input_base = self.inputs[job]
        symtab_base = self.symtabs[job]
        ast_base = self.asts[job]
        output_base = self.outputs[job]
        n_funcs = self.n_functions
        third = n_funcs // 3
        lexer_funcs = self.functions[:third]
        parser_funcs = self.functions[third : 2 * third]
        backend_funcs = self.functions[2 * third :]

        for chunk in range(self.chunks):
            probes = self.lookup_traces[job][chunk].tolist()
            # Read the next piece of source through the kernel.
            yield from self.kernel.sys_read(ctx, job + chunk, input_base)

            # Each chunk exercises a rotating pair of functions from
            # each compiler phase: long linear bodies (gcc's code
            # paths), revisited a couple of times (its loops), with the
            # full image cycling through over the chunks — the mix that
            # gives gcc its large instruction working set. The passes
            # of one visit walk the same addresses, so a visit is one
            # stretch, kept only until its last pass.
            # Lexing: stream over the input, hashing tokens.
            for rot in range(2):
                region = lexer_funcs[(chunk + rot) % len(lexer_funcs)]
                yield from self._passes(
                    ctx.emitter(region),
                    self._lex_pass,
                    input_base,
                    symtab_base,
                    probes,
                    rot,
                )

            # Parsing: build AST nodes, update the symbol table.
            for rot in range(2):
                region = parser_funcs[(chunk + rot) % len(parser_funcs)]
                yield from self._passes(
                    ctx.emitter(region),
                    self._parse_pass,
                    symtab_base,
                    ast_base,
                    probes,
                    chunk,
                )

            # Optimizer + code generation: walk the AST, write output.
            for rot in range(2):
                region = backend_funcs[(chunk + rot) % len(backend_funcs)]
                yield from self._passes(
                    ctx.emitter(region),
                    self._backend_pass,
                    ast_base,
                    output_base,
                )

            # Write the object-code chunk; take a scheduler tick.
            yield from self.kernel.sys_write(ctx, job + chunk, output_base)
            if chunk % 2 == 1:
                yield from self.kernel.sched_tick(ctx)

    @staticmethod
    def _passes(em, one_pass, *args):
        """``_PASSES`` passes over one function body from its top."""
        kept = {}
        for _pass in range(_PASSES):
            em.jump(0)
            yield from em.replay(kept, None, one_pass, *args)

    def _lex_pass(self, em, input_base, symtab_base, probes, rot):
        for i in range(0, self.symtab_words, 8):
            yield em.load(input_base + i * _WORD)
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            probe = probes[(rot + i) % len(probes)]
            yield em.load(symtab_base + probe * _WORD, src1=1)
            yield em.ialu(src1=1)
            yield em.branch(False)

    def _parse_pass(self, em, symtab_base, ast_base, probes, chunk):
        for i, probe in enumerate(probes):
            yield em.load(symtab_base + probe * _WORD)
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            yield em.store(symtab_base + probe * _WORD, src1=1)
            node = (chunk * len(probes) + i) % self.symtab_words
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            yield em.store(ast_base + node * _WORD, src1=2)
            yield em.branch(False)

    def _backend_pass(self, em, ast_base, output_base):
        for i in range(0, self.symtab_words, 8):
            yield em.load(ast_base + i * _WORD)
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            yield em.ialu(src1=1)
            yield em.store(output_base + i * _WORD, src1=1)
            yield em.branch(False)

    def program(self, cpu_id: int):
        """This CPU's share of the compile jobs plus kernel time."""
        ctx = self.context(cpu_id)
        # Static schedule: the two makes' jobs interleave round-robin
        # over the CPUs (job j runs on CPU j mod n_cpus).
        for job in range(cpu_id, self.n_jobs, self.n_cpus):
            yield from self._compile_job(ctx, job)
            yield from self.kernel.sched_tick(ctx)


def make(n_cpus: int, functional: FunctionalMemory, scale: str = "test"):
    """Factory for the experiment harness."""
    return MultiprogWorkload(n_cpus, functional, scale)
