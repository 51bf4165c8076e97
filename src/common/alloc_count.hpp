// Heap-allocation counters: one for the process, one per thread.
//
// Linking this TU (any reference to either accessor pulls it in) replaces
// the global operator new/delete family with malloc-backed versions that
// bump one relaxed atomic and one thread-local count per allocation. The
// engine brackets the kernel execution window with two reads of the
// calling thread's count and publishes the delta as the
// `jigsaw.engine.submit.allocations` counter; the steady-state regression
// test asserts the delta is zero once the worker's kernel scratch is warm
// (docs/PERFORMANCE.md).
//
// The process count is global across all threads: a window measured with
// it on one thread also counts whatever other threads allocate meanwhile
// (client threads, other workers, the tracer), so it suits only tests
// that own the whole process. The thread count sees only the calling
// thread. That covers the kernel window: the kernel's OpenMP body
// allocates nothing (stack buffers and the caller's kernel scratch).
#pragma once

#include <cstdint>

namespace jigsaw {

/// Number of heap allocations (operator new calls, all forms) performed
/// by the process so far. Monotonic; never reset.
std::uint64_t heap_allocation_count();

/// The same count for the calling thread alone. Monotonic; never reset.
std::uint64_t thread_heap_allocation_count();

}  // namespace jigsaw
