"""Durable plan execution: atomic writes, checkpoints, crash recovery.

Three layers (see ``docs/RESILIENCE.md``):

* :mod:`repro.durability.atomic` — the shared write-temp-then-rename
  helpers every durable artifact (checkpoints, traces, metrics dumps,
  bench JSON) must go through, so a crash mid-write never leaves a
  truncated file behind (``test_source_invariants.py`` test);
* :mod:`repro.durability.checkpoint` — the versioned, sha256-verified,
  dataset-fingerprinted checkpoint format that snapshots
  :class:`~repro.core.plan.PlanExecutor` progress at iteration
  boundaries: the row order, every marginal/joint counter, the ratcheted
  sample floor, retired answers with their
  :class:`~repro.core.results.GuaranteeStatus`, residual budgets, and
  the in-flight query's loop state;
* :mod:`repro.durability.recovery` — plan-level retry → checkpoint →
  resume, so a flaky :class:`~repro.data.column_store.ColumnStore`
  degrades to a bounded-backoff retry instead of aborting the batch.
"""

from repro.durability.atomic import (
    AtomicTextFile,
    atomic_write_bytes,
    atomic_write_text,
)

# checkpoint/recovery re-exports resolve lazily: they import the engine
# and plan layers, which themselves import repro.durability.atomic — an
# eager import here would turn that into a cycle for any low-level
# module (e.g. repro.obs.sinks) that only wants the atomic writer.
_LAZY = {
    "CHECKPOINT_FORMAT": "repro.durability.checkpoint",
    "CHECKPOINT_SCHEMA_VERSION": "repro.durability.checkpoint",
    "PlanCheckpoint": "repro.durability.checkpoint",
    "load_checkpoint": "repro.durability.checkpoint",
    "save_checkpoint": "repro.durability.checkpoint",
    "store_fingerprint": "repro.durability.checkpoint",
    "execute_plan_with_recovery": "repro.durability.recovery",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        # The module __getattr__ protocol (PEP 562) requires a plain
        # AttributeError so hasattr()/getattr() fallbacks keep working.
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


# The checkpoint/recovery names resolve through __getattr__ above
# (lazily, to break the import cycle), so they are not bound here.
__all__ = [
    "AtomicTextFile",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "PlanCheckpoint",
    "atomic_write_bytes",
    "atomic_write_text",
    "execute_plan_with_recovery",
    "load_checkpoint",
    "save_checkpoint",
    "store_fingerprint",
]
