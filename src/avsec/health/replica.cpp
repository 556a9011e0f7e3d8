#include "avsec/health/replica.hpp"

namespace avsec::health {

void ReplicaPort::publish(double value, core::SimTime now) {
  if (muted_) {
    ++suppressed_;
    return;
  }
  if (voter_ != nullptr) voter_->publish(replica_, value + bias_, now);
  if (monitor_ != nullptr) monitor_->heartbeat(name_);
}

}  // namespace avsec::health
