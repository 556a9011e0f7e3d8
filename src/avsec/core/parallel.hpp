// Fork-join fan-out for embarrassingly parallel simulation work.
//
// parallel_for exists for campaign sweeps and the linter's file scan:
// every item builds its own world (or lexes its own file) and writes only
// its own result slot, so the only shared state is the index counter.
// Items must not share mutable state unless they synchronize it
// themselves.
#pragma once

#include <cstddef>
#include <functional>

namespace avsec::core {

/// std::thread::hardware_concurrency with a floor of 1.
std::size_t default_workers();

/// Calls fn(slot, i) once for every i in [0, n).
///
/// With min(workers, n) <= 1 every call runs inline on the caller with
/// slot 0. Otherwise min(workers, n) threads start; a thread's slot is its
/// index in [0, min(workers, n)), so callers can keep per-thread state
/// (a warm simulation context) without thread-local storage. Threads
/// claim indices one at a time from a shared counter, so long and short
/// items interleave. With threads started, the caller only joins: no call
/// runs on it, so its thread-local state never reaches an item.
///
/// The first exception any call throws is rethrown after every thread has
/// joined; once one is thrown, no thread claims a further index. If a
/// thread cannot be started, the threads already running stop claiming,
/// are joined, and the start failure is rethrown.
void parallel_for(std::size_t workers, std::size_t n,
                  const std::function<void(std::size_t slot, std::size_t i)>&
                      fn);

}  // namespace avsec::core
