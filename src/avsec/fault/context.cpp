#include "avsec/fault/context.hpp"

namespace avsec::fault {

void SimContext::reset() {
  sim_.reset();
  recorder_.reset();
  ++resets_;
}

}  // namespace avsec::fault
