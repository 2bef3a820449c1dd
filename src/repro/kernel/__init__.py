"""Vectorized columnar relational kernel.

Compiles prepared programs to integer-ID array execution: values are
interned into a per-session :class:`SymbolTable`, relations become
sorted ``int64`` arrays, and the relational operators plus repair-key
run as numpy kernels.  Results — including sampled trajectories under a
fixed seed — are bit-identical to the frozenset interpreter's.
:func:`lower` is the one step that puts a query on this kernel.
"""

from repro.kernel.columnar import (
    ColumnarDatabase,
    ColumnarRelation,
    extern_database,
    extern_relation,
    intern_database,
    intern_relation,
)
from repro.kernel.compile import (
    CompiledEvent,
    CompiledKernel,
    CompiledQuery,
    KernelCompileError,
    compile_event,
    compile_kernel,
    compile_query,
    kernel_ineligibility,
)
from repro.kernel.lowering import (
    fallback_reasons,
    fallback_total,
    lower,
    lower_kernel,
    lowered,
    source_database,
    source_query,
)
from repro.kernel.repair import repair_distribution_columnar, sample_repair_columnar
from repro.kernel.symbols import SymbolTable

__all__ = [
    "SymbolTable",
    "ColumnarRelation",
    "ColumnarDatabase",
    "intern_relation",
    "intern_database",
    "extern_relation",
    "extern_database",
    "CompiledKernel",
    "CompiledEvent",
    "CompiledQuery",
    "KernelCompileError",
    "compile_kernel",
    "compile_event",
    "compile_query",
    "kernel_ineligibility",
    "lower",
    "lower_kernel",
    "lowered",
    "source_query",
    "source_database",
    "fallback_total",
    "fallback_reasons",
    "sample_repair_columnar",
    "repair_distribution_columnar",
]
