#pragma once

// Local Data Memory (LDM) model.
//
// Each CPE owns a 64 KB scratch-pad instead of a data cache (Sec IV-A).
// Kernels stage tile data into the LDM with DMA (athread_get), compute in
// LDM, and write back (athread_put). This class models the LDM as a real
// bump-allocated buffer: allocations hand out host memory so kernels
// genuinely compute out of the staged copy, and exceeding the 64 KB
// capacity fails the same way it would on hardware (at development time,
// loudly). The host buffer is allocated on the first alloc(), by the
// thread that makes it, so an LDM that never stages data (timing-only
// runs) costs no resident memory.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "support/error.h"

namespace usw::hw {

class Ldm {
 public:
  /// Alignment of every allocation (the SIMD width). The storage base is
  /// over-aligned to it, so an aligned offset is an aligned pointer.
  static constexpr std::size_t kAlign = 32;

  explicit Ldm(std::size_t capacity_bytes);

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t remaining() const { return capacity_ - used_; }

  /// Allocates `count` elements of T, 32-byte aligned (SIMD width).
  /// Throws ResourceError if the working set would exceed the capacity —
  /// the equivalent of an athread LDM overflow.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    const std::size_t offset = reserve<T>(count);
    return std::span<T>(reinterpret_cast<T*>(base() + offset), count);
  }

  /// Books `count` elements of T exactly as alloc() would — same
  /// alignment, same overflow ResourceError — without touching storage,
  /// and returns their offset. Lets a planner check a staging pattern
  /// against the capacity before any CPE runs.
  template <typename T>
  std::size_t reserve(std::size_t count) {
    return reserve_bytes(count * sizeof(T),
                         alignof(T) > kAlign ? alignof(T) : kAlign);
  }

  /// Releases everything (end of a tile); pointers become invalid.
  void reset() { used_ = 0; }

 private:
  std::size_t reserve_bytes(std::size_t bytes, std::size_t align);
  /// The storage base, allocated on first use.
  std::byte* base();

  /// One SIMD line; array new honours its over-alignment.
  struct alignas(kAlign) Line {
    std::byte bytes[kAlign];
  };

  std::unique_ptr<Line[]> storage_;  ///< capacity rounded up to whole lines
  std::size_t capacity_;
  std::size_t used_ = 0;
};

}  // namespace usw::hw
