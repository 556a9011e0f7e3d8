// Fixture: a src/ header linted together with r9_api.cpp and
// r9_callers.cpp. Expect R9 at lines 22 and 34 only.
#pragma once

namespace avsec::sim {

int used_elsewhere(int x);   // called from r9_callers.cpp
int used_in_own_cpp(int x);  // called only inside r9_api.cpp

class Meter {
 public:
  explicit Meter(int base) : base_(base) {}
  Meter(const Meter&) = delete;
  ~Meter() = default;
  bool operator==(const Meter& o) const { return base_ == o.base_; }

  virtual int read() const;  // called through a member
  int scale(int k) const;    // overload whose sibling is called
  int scale(int k, int d) const { return scale(k) / d; }
  // AVSEC-LINT-ALLOW(R9): public API kept on purpose for out-of-tree tools
  int waived() const { return base_; }
  int unused_probe() const { return base_ + 1; }

 private:
  int base_;
};

class Gauge : public Meter {
 public:
  using Meter::Meter;
  int read() const override { return 7; }
};

int never_called();

}  // namespace avsec::sim
