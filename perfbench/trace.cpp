#include "trace.hpp"

#include <atomic>

namespace perfbench::trace {

bool g_enabled = false;
std::array<Timer, static_cast<std::size_t>(Layer::kCount)> g_timers;

// Bumped by alloc_count.cpp's operator new in the traced binary.
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench::trace
