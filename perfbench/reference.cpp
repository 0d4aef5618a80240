// The reference kernel (README.md beside this file, "Relative time"):
// fixed work in the benchmark's own code, timed right before and right
// after every measured pass. The host is shared, and how fast a vCPU runs
// moves by up to 2x within minutes; a pass's wall time over the kernel's
// wall time measured beside it cancels most of that. No vgrid code runs
// here, so no change to vgrid moves the kernel.
//
// The kernel has three parts, chosen so that together they slow down as
// much as the workloads do when the host gets busy (README.md): a
// dependent integer chain, which hardly slows; a discrete-event loop over
// a binary heap, like the simulation kernel's; and that loop with a heap
// allocation, a hash-map update and an indirect call on every event,
// which slows more than the workloads.

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr int kChainSteps = 10'000'000;
constexpr int kHeapEvents = 250'000;
constexpr int kMixedEvents = 150'000;
constexpr std::uint32_t kQueued = 4096;
constexpr std::uint32_t kSlots = 4096;
constexpr std::uint64_t kKeys = 65536;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

template <int K>
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> (K % 29 + 3);
  x *= 0x9E3779B97F4A7C15ULL + 2 * K;
  if (x & (1ULL << (K % 61))) x += K * 7919;
  x ^= x << (K % 13 + 1);
  x += (x >> 17) * (K | 1);
  if ((x & 3) == (K & 3)) x ^= 0xDEADBEEFULL * K;
  return x;
}

using Mix = std::uint64_t (*)(std::uint64_t);
template <int... K>
constexpr std::array<Mix, sizeof...(K)> mixes(
    std::integer_sequence<int, K...>) {
  return {&mix<K>...};
}
constexpr auto kMixes = mixes(std::make_integer_sequence<int, 64>());

std::uint64_t chain() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
  for (int i = 0; i < kChainSteps; ++i) {
    acc += xorshift(x) * 0xBF58476D1CE4E5B9ULL;
    if (acc & 1) acc ^= x >> 3;
  }
  return acc;
}

using Event = std::pair<std::uint64_t, std::uint32_t>;
using Queue = std::priority_queue<Event, std::vector<Event>, std::greater<>>;

Queue fill_queue(std::uint64_t& x, std::uint32_t targets) {
  Queue queue;
  for (std::uint32_t i = 0; i < kQueued; ++i) {
    queue.push({xorshift(x) % 1000, i % targets});
  }
  return queue;
}

std::uint64_t events() {
  std::uint64_t x = 0xDA942042E4DD58B5ULL;
  Queue queue = fill_queue(x, kQueued);
  std::vector<std::uint64_t> state(kQueued);
  for (int i = 0; i < kHeapEvents; ++i) {
    const Event event = queue.top();
    queue.pop();
    state[event.second] += event.first;
    queue.push({event.first + 1 + xorshift(x) % 1000,
                static_cast<std::uint32_t>(x % state.size())});
  }
  std::uint64_t sum = 0;
  for (const std::uint64_t value : state) sum += value;
  return sum;
}

std::uint64_t mixed_events() {
  std::uint64_t x = 0x853C49E6748FEA9BULL, sum = 0;
  Queue queue = fill_queue(x, kSlots);
  std::vector<char*> slots(kSlots, nullptr);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < kMixedEvents; ++i) {
    const Event event = queue.top();
    queue.pop();
    const std::uint64_t r = xorshift(x);
    char*& slot = slots[event.second];
    if (slot) sum += static_cast<unsigned char>(slot[0]);
    delete[] slot;
    slot = new char[16 + (r >> 32) % 240];
    slot[0] = static_cast<char>(r);
    map[r % kKeys] += event.first;
    sum = kMixes[r % kMixes.size()](sum);
    queue.push({event.first + 1 + r % 1000,
                static_cast<std::uint32_t>((r >> 20) % kSlots)});
  }
  for (char* slot : slots) delete[] slot;
  return sum + map.size();
}

/// Keeps the kernel's result, so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_kernel_s() {
  const std::int64_t start = wall_ns();
  g_sink = chain() + events() + mixed_events();
  return seconds_since(start);
}

}  // namespace perfbench
