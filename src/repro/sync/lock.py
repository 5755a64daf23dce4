"""Test-and-test-and-set spin lock over LL/SC.

The classic MIPS acquire sequence the paper's applications rely on:

.. code-block:: none

    top:  ll    r, lock      ; spin reading until free
          bnez  r, top
          sc    r2, lock, 1  ; try to claim
          beqz  r2, top      ; lost the race -> retry

While the lock is held, spinners loop on the LL, which *hits in their
cache* after the first read — so spinning costs CPU time, not memory
traffic, until the release store invalidates the line (or, in the
shared-L1 architecture, simply updates the one shared copy).

The ``ll``/``bnez`` pair is a declared spin
(:meth:`~repro.isa.stream.Emitter.spin_load`): either CPU model may
run an iteration that finds the lock held without resuming
:meth:`acquire`, bumping the lock's retry counter itself, so
``contended_retries`` reads the same either way.
"""

from __future__ import annotations

from repro.isa.codegen import CodeSpace
from repro.workloads.base import ThreadContext
from repro.workloads.layout import AddressSpace

#: instruction slots in the acquire routine's code region
_ACQUIRE_SLOTS = 8


class SpinLock:
    """One lock word, padded to its own cache line."""

    def __init__(self, name: str, code: CodeSpace, data: AddressSpace) -> None:
        self.name = name
        self.addr = data.alloc_line()
        self.region = code.region(f"{name}.acquire", _ACQUIRE_SLOTS)
        self.acquires = 0
        # One-element cell shared with the spin load, so a CPU that
        # runs a held-lock iteration itself still counts the retry.
        self._retries = [0]

    @property
    def contended_retries(self) -> int:
        """Acquire attempts that found the lock held or lost the SC."""
        return self._retries[0]

    @contended_retries.setter
    def contended_retries(self, count: int) -> None:
        self._retries[0] = count

    def acquire(self, ctx: ThreadContext):
        """Spin until the lock is claimed (use with ``yield from``)."""
        em = ctx.emitter(self.region)
        em.jump(0)
        top = em.label()
        retries = self._retries
        while True:
            value = yield em.spin_load(
                self.addr, until=0, linked=True, retries=retries
            )
            if value:
                # Held: spin on the cached copy.
                retries[0] += 1
                yield em.branch(True, to=top)
                continue
            yield em.branch(False)
            claimed = yield em.sc(self.addr, 1)
            if claimed:
                yield em.branch(False)
                self.acquires += 1
                return
            # Lost the SC race.
            retries[0] += 1
            yield em.branch(True, to=top)

    def release(self, ctx: ThreadContext):
        """Store zero to the lock word."""
        em = ctx.emitter(self.region)
        em.jump(_ACQUIRE_SLOTS - 1)
        yield em.store(self.addr, 0)
