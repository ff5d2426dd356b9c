// Heap-allocation counters fed by the replacement operator new/delete in
// alloc_counter.cc. That file is linked into the benchmark driver only, so
// the library and mapinv_serve keep the standard allocator.
#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;

  AllocCounts operator-(const AllocCounts& other) const {
    return {allocs - other.allocs, bytes - other.bytes};
  }
  AllocCounts& operator+=(const AllocCounts& other) {
    allocs += other.allocs;
    bytes += other.bytes;
    return *this;
  }
};

/// Allocations the calling thread made while counting was on.
AllocCounts AllocSnapshot();

/// Turns counting on or off for the calling thread and returns the previous
/// setting. Counting is off until a driver span turns it on, so untraced ops
/// pay one thread-local test per allocation and no counter update.
bool CountAllocations(bool on);

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
