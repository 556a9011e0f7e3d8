#include "avsec/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace avsec::core {

std::size_t default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

void parallel_for(std::size_t workers, std::size_t n,
                  const std::function<void(std::size_t slot, std::size_t i)>&
                      fn) {
  const std::size_t count = std::min(workers, n);
  if (count <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  // The first thread to flip `stop` owns `error`; join() publishes it.
  std::atomic<bool> stop{false};
  std::exception_ptr error;
  auto body = [&](std::size_t slot) {
    try {
      for (std::size_t i = next.fetch_add(1); i < n && !stop.load();
           i = next.fetch_add(1)) {
        fn(slot, i);
      }
    } catch (...) {
      if (!stop.exchange(true)) error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  try {
    threads.reserve(count);
    for (std::size_t slot = 0; slot < count; ++slot) {
      threads.emplace_back(body, slot);
    }
  } catch (...) {
    stop.store(true);
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace avsec::core
