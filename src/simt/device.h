// The virtual GPU device: a distinct address space with capacity accounting.
// Host code cannot touch device data except through explicit upload/download
// (mirroring cudaMemcpy) or from inside a kernel via Thread::load/store. Every
// DeviceBuffer receives a unique, stable device address range so the
// coalescing analyzer can reason about physical 128-byte segments.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/hardware_spec.h"

namespace griffin::simt {

class Device;

namespace detail {
class UntypedBuffer {
 public:
  UntypedBuffer(Device* dev, std::uint64_t base, std::size_t bytes);
  ~UntypedBuffer();
  UntypedBuffer(const UntypedBuffer&) = delete;
  UntypedBuffer& operator=(const UntypedBuffer&) = delete;
  UntypedBuffer(UntypedBuffer&& o) noexcept;
  UntypedBuffer& operator=(UntypedBuffer&& o) noexcept;

  std::uint64_t base() const { return base_; }
  const Device* device() const { return dev_; }
  std::size_t bytes() const { return storage_.size(); }
  std::byte* data() { return storage_.data(); }
  const std::byte* data() const { return storage_.data(); }

 private:
  void release();
  Device* dev_ = nullptr;
  std::uint64_t base_ = 0;
  std::vector<std::byte> storage_;
};
}  // namespace detail

/// Typed device allocation. The element storage lives on the host (we are a
/// simulator) but is considered device-resident: reading it from host code
/// without Device::download would be a bug, like dereferencing a device
/// pointer on the CPU.
template <typename T>
class DeviceBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device* dev, std::uint64_t base, std::size_t n)
      : raw_(dev, base, n * sizeof(T)), size_(n) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The Device that allocated this buffer (null once moved from).
  const Device* device() const { return raw_.device(); }
  std::uint64_t device_addr(std::size_t idx) const {
    return raw_.base() + idx * sizeof(T);
  }

  // Internal accessors for the simulator and the copy engine. Kernel and
  // engine code must go through Thread::load/store or Device::upload/download.
  T* raw() { return reinterpret_cast<T*>(raw_.data()); }
  const T* raw() const { return reinterpret_cast<const T*>(raw_.data()); }

 private:
  detail::UntypedBuffer raw_{nullptr, 0, 0};
  std::size_t size_ = 0;
};

/// Thrown when allocations exceed the modeled device memory (5 GB on the
/// paper's K20) — the condition the paper cites against cache-everything
/// designs like Ao et al. [8].
class DeviceOutOfMemory : public std::runtime_error {
 public:
  explicit DeviceOutOfMemory(std::size_t requested, std::size_t free_bytes)
      : std::runtime_error("device out of memory: requested " +
                           std::to_string(requested) + " bytes, " +
                           std::to_string(free_bytes) + " free") {}
};

class Device {
 public:
  explicit Device(sim::GpuSpec gpu = {}, std::size_t mem_capacity =
                                             sim::PcieSpec{}.device_mem_bytes)
      : gpu_(gpu), capacity_(mem_capacity) {}

  const sim::GpuSpec& spec() const { return gpu_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t free_bytes() const { return capacity_ - used_; }
  std::uint64_t alloc_count() const { return alloc_count_; }

  template <typename T>
  DeviceBuffer<T> alloc(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    reserve(bytes);
    ++alloc_count_;
    const std::uint64_t base = next_addr_;
    // Keep allocations 256-byte aligned like a real allocator; addresses are
    // never reused so analyzers can't confuse two buffers.
    next_addr_ += (bytes + 255) / 256 * 256;
    return DeviceBuffer<T>(this, base, n);
  }

  /// Host -> device copy (the data movement itself; time is charged by the
  /// PCIe link model at the call site).
  template <typename T>
  void upload(DeviceBuffer<T>& dst, std::span<const T> src,
              std::size_t dst_offset = 0) {
    assert(dst_offset + src.size() <= dst.size());
    // An empty span's data() may be null, which memcpy forbids even for n=0.
    if (!src.empty()) {
      std::memcpy(dst.raw() + dst_offset, src.data(), src.size_bytes());
    }
    h2d_bytes_ += src.size_bytes();
  }

  /// Device -> host copy.
  template <typename T>
  void download(std::span<T> dst, const DeviceBuffer<T>& src,
                std::size_t src_offset = 0) const {
    assert(src_offset + dst.size() <= src.size());
    if (!dst.empty()) {
      std::memcpy(dst.data(), src.raw() + src_offset, dst.size_bytes());
    }
    d2h_bytes_ += dst.size_bytes();
  }

  std::uint64_t h2d_bytes() const { return h2d_bytes_; }
  std::uint64_t d2h_bytes() const { return d2h_bytes_; }

 private:
  friend class detail::UntypedBuffer;

  void reserve(std::size_t bytes) {
    if (bytes > capacity_ - used_) {
      throw DeviceOutOfMemory(bytes, capacity_ - used_);
    }
    used_ += bytes;
  }
  void unreserve(std::size_t bytes) {
    assert(bytes <= used_);
    used_ -= bytes;
  }

  sim::GpuSpec gpu_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::uint64_t next_addr_ = 0x1000;  // nonzero so addr 0 means "null"
  std::uint64_t alloc_count_ = 0;
  mutable std::uint64_t h2d_bytes_ = 0;
  mutable std::uint64_t d2h_bytes_ = 0;
};

namespace detail {
inline UntypedBuffer::UntypedBuffer(Device* dev, std::uint64_t base,
                                    std::size_t bytes)
    : dev_(dev), base_(base), storage_(bytes) {}

inline UntypedBuffer::~UntypedBuffer() { release(); }

inline UntypedBuffer::UntypedBuffer(UntypedBuffer&& o) noexcept
    : dev_(o.dev_), base_(o.base_), storage_(std::move(o.storage_)) {
  o.dev_ = nullptr;
  o.storage_.clear();
}

inline UntypedBuffer& UntypedBuffer::operator=(UntypedBuffer&& o) noexcept {
  if (this != &o) {
    release();
    dev_ = o.dev_;
    base_ = o.base_;
    storage_ = std::move(o.storage_);
    o.dev_ = nullptr;
    o.storage_.clear();
  }
  return *this;
}

inline void UntypedBuffer::release() {
  if (dev_ != nullptr && !storage_.empty()) {
    dev_->unreserve(storage_.size());
  }
  dev_ = nullptr;
}
}  // namespace detail

}  // namespace griffin::simt
