// Fixture: definitions for r9_api.hpp. Definitions are not uses.
#include "r9_api.hpp"

namespace avsec::sim {

int used_in_own_cpp(int x) { return x * 2; }

int used_elsewhere(int x) { return used_in_own_cpp(x); }

int Meter::read() const { return base_; }

int Meter::scale(int k) const { return base_ * k; }

int never_called() { return 0; }

}  // namespace avsec::sim
