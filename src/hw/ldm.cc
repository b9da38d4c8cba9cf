#include "hw/ldm.h"

#include <string>

namespace usw::hw {

Ldm::Ldm(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
  USW_ASSERT_MSG(capacity_bytes > 0, "LDM capacity must be positive");
}

std::size_t Ldm::reserve_bytes(std::size_t bytes, std::size_t align) {
  std::size_t offset = (used_ + align - 1) / align * align;
  if (offset + bytes > capacity_) {
    throw ResourceError("LDM overflow: request of " + std::to_string(bytes) +
                        " B with " + std::to_string(capacity_ - used_) +
                        " B free of " + std::to_string(capacity_) + " B");
  }
  used_ = offset + bytes;
  return offset;
}

std::byte* Ldm::base() {
  if (storage_ == nullptr)
    storage_ = std::make_unique<Line[]>((capacity_ + kAlign - 1) / kAlign);
  return reinterpret_cast<std::byte*>(storage_.get());
}

}  // namespace usw::hw
