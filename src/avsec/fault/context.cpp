#include "avsec/fault/context.hpp"

namespace avsec::fault {

SimContext::SimContext() : sim_(&arena_) {}

void SimContext::reset() {
  // Order matters: the scheduler's containers must hand their storage
  // back to the arena before the arena rewinds (EventArena::reset()
  // requires no live arena memory), and only then is the bundle clean.
  sim_.reset();
  arena_.reset();
  recorder_.reset();
  ++resets_;
}

}  // namespace avsec::fault
