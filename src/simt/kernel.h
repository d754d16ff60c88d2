// Block-synchronous kernel execution for the virtual GPU.
//
// A kernel is a callable `void(Block&)` invoked once per thread block. Inside
// it, `Block::for_each_thread` runs a region for every thread of the block;
// consecutive regions are separated by an implicit block barrier (the
// __syncthreads of this programming model). Per-lane "registers" that must
// survive across regions are ordinary host arrays indexed by Thread::tid().
//
// While a region executes, the simulator counts the work each lane performs.
// "Ordinal o" is the o-th access of a kind a lane makes in the region; the
// o-th accesses of a warp's lanes issue together.
//   - ALU cycles: explicit Thread::charge plus fixed per-access costs. A
//     region ends at a block barrier, so every warp of the block is charged
//     the block-wide maximum lane count (SIMT lockstep: divergent code pays
//     the cost the paper describes in §2.3).
//   - Global memory: per warp and ordinal, each distinct 128-byte segment the
//     lanes touch is one transaction, exactly as the hardware coalesces.
//   - Shared memory: per warp and ordinal, the access serializes by its
//     most-contended bank (32 banks of 4 bytes).
//   - Atomics: per warp and ordinal, lanes hitting one address replay.
// Lanes of a block run back to back, so a warp's lanes are consecutive and a
// WarpTally folds each access into these counts as the lane records it; no
// per-lane log is kept. The logged analyzer it must match lives in
// tests/simt_reference.h as the oracle. The counts feed sim::GpuCostModel,
// which turns them into simulated time.
//
// A kernel executes functionally on every launch, with three exceptions that
// replay counts an earlier run recorded (DESIGN.md §5):
//   - a block scan runs its body the first time its launch meets its
//     ScanShape; later scans of that shape in the launch replay the counts
//     and write the prefix sum on the host (Block::scan_once,
//     simt/collectives.cpp);
//   - a device list's posting-block decode runs its body the first time the
//     block is decoded from that device copy (Block::measure / Block::replay,
//     gpu/decode.cpp);
//   - a GpuExecutor's MergePath step skips its launches and repeats an
//     earlier step's counts when it intersects the same term set with the
//     same list (gpu/mergepath.h).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/gpu_cost_model.h"
#include "simt/device.h"
#include "util/bits.h"

namespace griffin::simt {

struct LaunchConfig {
  std::uint32_t grid_blocks = 1;
  std::uint32_t block_threads = 256;
};

// Modeled issue costs, in core cycles per lane.
inline constexpr double kAluCycle = 1.0;
inline constexpr double kGlobalAccessCycles = 4.0;
inline constexpr double kSharedAccessCycles = 2.0;
/// Replay cost per extra lane of a warp hitting one atomic address.
inline constexpr double kAtomicReplayCycles = 8.0;

namespace detail {

/// Counts (ordinal, key) pairs for one warp: an open-addressing table whose
/// entries carry the generation that wrote them. Entries of earlier
/// generations read as empty, so clear() is O(1) and the table keeps its
/// capacity from warp to warp.
class OrdinalCounter {
 public:
  /// Counts one more (ord, key) and returns its count in this generation.
  std::uint32_t bump(std::uint32_t ord, std::uint64_t key);
  void clear() {
    ++gen_;
    live_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t gen = 0;
    std::uint32_t ord = 0;
    std::uint32_t count = 0;
  };
  std::size_t slot_of(std::uint32_t ord, std::uint64_t key) const;
  void grow();

  std::vector<Entry> table_;  // size 0 or a power of two
  int shift_ = 64;            // 64 - log2(table_.size())
  std::size_t live_ = 0;      // entries of the current generation
  std::uint64_t gen_ = 1;
};

}  // namespace detail

/// A launch's access accounting, folded in as each lane records an access.
/// Block runs a warp's lanes back to back and calls begin_warp() at every
/// warp boundary, so per ordinal the tally holds only what the current
/// warp's lanes have issued so far; slots of earlier warps are recognised by
/// their generation and read as empty. Every count goes straight into the
/// launch's KernelStats the moment it becomes known:
///   - a transaction when a lane touches a segment no earlier lane of its
///     warp touched at that ordinal;
///   - a conflict cycle when the ordinal's most-contended bank count rises
///     above 1 (the sum is max - 1, the serialization);
///   - a replay when the ordinal's highest atomic address multiplicity rises
///     above 1.
/// Every charge is an integer number of cycles, so the double sums are exact
/// and do not depend on the order they are added in.
class WarpTally {
 public:
  WarpTally(sim::KernelStats& stats, std::size_t segment_bytes);

  void begin_warp() {
    ++gen_;
    segments_.clear();
    atomics_.clear();
  }

  /// A lane's o-th global access: `bytes` at device address `addr`.
  void global(std::uint32_t o, std::uint64_t addr, std::uint32_t bytes) {
    stats_.global_bytes_requested += bytes;
    const std::uint64_t last = (addr + bytes - 1) >> segment_shift_;
    for (std::uint64_t s = addr >> segment_shift_; s <= last; ++s) {
      segment(o, s);
    }
  }

  /// A lane's o-th shared-memory access, to `bank`.
  void shared(std::uint32_t o, std::uint32_t bank) {
    ++stats_.shared_accesses;
    SharedSlot& slot = slot_at(shared_, o);
    if (slot.gen != gen_) slot = SharedSlot{gen_};
    const std::uint8_t n = ++slot.bank_count[bank];
    if (n > slot.max) {
      slot.max = n;
      if (n > 1) stats_.shared_conflict_cycles += 1.0;
    }
  }

  /// A lane's o-th atomic, to device address `addr`.
  void atomic(std::uint32_t o, std::uint64_t addr) {
    AtomicSlot& slot = slot_at(atomic_, o);
    if (slot.gen != gen_) slot = AtomicSlot{gen_};
    const std::uint32_t n = atomics_.bump(o, addr);
    if (n > slot.max) {
      slot.max = n;
      if (n > 1) stats_.warp_cycles += kAtomicReplayCycles;
    }
  }

 private:
  struct GlobalSlot {
    std::uint64_t gen = 0;
    std::uint64_t last = 0;  // segment of the previous lane's access
    bool hashed = false;     // `last` is in segments_ (a second segment came)
  };
  struct SharedSlot {
    std::uint64_t gen = 0;
    std::uint8_t max = 0;
    std::array<std::uint8_t, 32> bank_count{};
  };
  struct AtomicSlot {
    std::uint64_t gen = 0;
    std::uint32_t max = 0;
  };

  template <typename Slot>
  static Slot& slot_at(std::vector<Slot>& slots, std::uint32_t o) {
    if (o >= slots.size()) slots.resize(std::size_t{o} + 1);
    return slots[o];
  }

  void segment(std::uint32_t o, std::uint64_t seg) {
    GlobalSlot& slot = slot_at(global_, o);
    if (slot.gen != gen_) {
      // The warp's first access at this ordinal.
      slot = GlobalSlot{gen_, seg};
      ++stats_.global_transactions;
    } else if (slot.last != seg) {
      // Off the same-segment fast path: the exact distinct-segment set.
      if (!slot.hashed) {
        segments_.bump(o, slot.last);
        slot.hashed = true;
      }
      if (segments_.bump(o, seg) == 1) ++stats_.global_transactions;
      slot.last = seg;
    }
  }

  sim::KernelStats& stats_;
  int segment_shift_;
  std::uint64_t gen_ = 1;
  std::vector<GlobalSlot> global_;
  std::vector<SharedSlot> shared_;
  std::vector<AtomicSlot> atomic_;
  detail::OrdinalCounter segments_;
  detail::OrdinalCounter atomics_;
};

/// Per-lane execution context, valid only inside a for_each_thread region.
class Thread {
 public:
  std::uint32_t tid() const { return tid_; }
  std::uint32_t block_id() const { return block_id_; }
  std::uint32_t block_dim() const { return block_dim_; }
  std::uint32_t gid() const { return block_id_ * block_dim_ + tid_; }
  std::uint32_t lane() const { return tid_ % 32; }
  std::uint32_t warp() const { return tid_ / 32; }

  /// Explicit ALU charge (loop bookkeeping, compares, bit ops, ...).
  void charge(double cycles) { alu_ += cycles; }

  /// Global-memory read of one element.
  template <typename T>
  T load(const DeviceBuffer<T>& buf, std::uint64_t idx) {
    assert(idx < buf.size());
    record_global(buf.device_addr(idx), sizeof(T));
    return buf.raw()[idx];
  }

  /// Global-memory write of one element.
  template <typename T>
  void store(DeviceBuffer<T>& buf, std::uint64_t idx, T value) {
    assert(idx < buf.size());
    record_global(buf.device_addr(idx), sizeof(T));
    buf.raw()[idx] = value;
  }

  /// Shared-memory read (charged, bank-tracked).
  template <typename T>
  T sload(std::span<const T> shared, std::size_t idx) {
    assert(idx < shared.size());
    record_shared(reinterpret_cast<std::uintptr_t>(&shared[idx]));
    return shared[idx];
  }

  /// Shared-memory write (charged, bank-tracked).
  template <typename T>
  void sstore(std::span<T> shared, std::size_t idx, T value) {
    assert(idx < shared.size());
    record_shared(reinterpret_cast<std::uintptr_t>(&shared[idx]));
    shared[idx] = value;
  }

  /// CUDA __popc equivalent.
  int popc(std::uint32_t x) {
    charge(kAluCycle);
    return util::popcount32(x);
  }

  /// Global atomic add; returns the previous value. Atomics from lanes of the
  /// same warp hitting the same address serialize — the tally adds a replay
  /// penalty per extra hit.
  template <typename T>
  T atomic_add(DeviceBuffer<T>& buf, std::uint64_t idx, T value) {
    assert(idx < buf.size());
    record_atomic(buf.device_addr(idx), sizeof(T));
    const T old = buf.raw()[idx];
    buf.raw()[idx] = old + value;
    return old;
  }

  /// Global atomic max; returns the previous value.
  template <typename T>
  T atomic_max(DeviceBuffer<T>& buf, std::uint64_t idx, T value) {
    assert(idx < buf.size());
    record_atomic(buf.device_addr(idx), sizeof(T));
    const T old = buf.raw()[idx];
    buf.raw()[idx] = std::max(old, value);
    return old;
  }

 private:
  friend class Block;

  Thread(std::uint32_t tid, std::uint32_t block_id, std::uint32_t dim,
         WarpTally& tally)
      : tally_(tally), tid_(tid), block_id_(block_id), block_dim_(dim) {}

  void record_global(std::uint64_t addr, std::uint32_t bytes) {
    alu_ += kGlobalAccessCycles;
    tally_.global(global_ord_++, addr, bytes);
  }
  void record_shared(std::uintptr_t host_addr) {
    alu_ += kSharedAccessCycles;
    // Bank = (word address) mod 32, 4-byte banks.
    tally_.shared(shared_ord_++,
                  static_cast<std::uint32_t>((host_addr / 4) % 32));
  }
  void record_atomic(std::uint64_t addr, std::uint32_t bytes) {
    record_global(addr, bytes);
    tally_.atomic(atomic_ord_++, addr);
    charge(2 * kAluCycle);
  }

  WarpTally& tally_;
  std::uint32_t tid_;
  std::uint32_t block_id_;
  std::uint32_t block_dim_;
  double alu_ = 0.0;
  // Accesses of each kind this lane has made in the region so far.
  std::uint32_t global_ord_ = 0;
  std::uint32_t shared_ord_ = 0;
  std::uint32_t atomic_ord_ = 0;
};

/// Everything a block scan's counts depend on besides its launch (GpuSpec,
/// block dim and the shared arena's host address are fixed per launch):
/// inclusive or exclusive, its length, where its data sits in the shared
/// arena, and the arena bytes in use when it starts (where its two sums
/// arrays go). Lanes of a partly filled chunk phase mix data and sums
/// accesses in one ordinal, so both offsets matter.
struct ScanShape {
  bool exclusive = false;
  std::size_t n = 0;
  std::size_t offset = 0;
  std::size_t used = 0;
  bool operator==(const ScanShape&) const = default;
};

/// Per-block execution context handed to the kernel body. One Block object
/// is reused across a launch's blocks (reset per block) so the tally's
/// tables keep their capacity — a pure simulator-speed concern.
class Block {
 public:
  Block(const sim::GpuSpec& spec, sim::KernelStats& stats,
        std::uint32_t block_id, std::uint32_t block_dim,
        std::uint32_t grid_dim)
      : spec_(spec),
        stats_(stats),
        block_id_(block_id),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        shared_arena_(spec.shared_mem_per_block),
        tally_(stats, spec.mem_transaction_bytes) {
    assert(block_dim_ > 0);
    assert(block_dim_ <= static_cast<std::uint32_t>(spec.max_threads_per_block));
  }

  /// Rewinds per-block state for the next block of the same launch.
  void reset_for_block(std::uint32_t block_id) {
    block_id_ = block_id;
    shared_used_ = 0;
  }

  std::uint32_t block_id() const { return block_id_; }
  std::uint32_t dim() const { return block_dim_; }
  std::uint32_t grid_dim() const { return grid_dim_; }
  std::uint32_t warps() const { return (block_dim_ + 31) / 32; }

  /// Allocate a shared-memory array for this block. Counts against the
  /// modeled 48 KB shared-memory budget; contents persist across regions
  /// within the block (like __shared__ arrays) and are zero-initialized.
  template <typename T>
  std::span<T> shared(std::size_t n) {
    const std::size_t bytes = util::round_up(n * sizeof(T), 16);
    if (shared_used_ + bytes > spec_.shared_mem_per_block) {
      throw std::runtime_error("shared memory budget exceeded");
    }
    T* p = reinterpret_cast<T*>(shared_arena_.data() + shared_used_);
    shared_used_ += bytes;
    std::fill_n(p, n, T{});
    return std::span<T>(p, n);
  }

  /// Execute one region: `f(Thread&)` for every thread of the block, then an
  /// implicit barrier. The lanes' accesses are counted as they are made.
  template <typename F>
  void for_each_thread(F&& f) {
    double max_alu = 0.0;
    for (std::uint32_t t = 0; t < block_dim_; ++t) {
      if (t % 32 == 0) tally_.begin_warp();
      Thread lane(t, block_id_, block_dim_, tally_);
      f(lane);
      max_alu = std::max(max_alu, lane.alu_);
    }
    // The region ends at a block barrier: every warp of the block occupies
    // its SM slot until the slowest lane arrives, so every warp is charged
    // the block-wide maximum. (For balanced regions this equals the per-warp
    // sum; for imbalanced ones — e.g. one lane serially walking a PForDelta
    // exception chain while three warps idle — it models the idling the
    // paper's §2.3 describes.)
    stats_.warp_cycles += max_alu * warps();
    barrier();
  }

  /// Explicit extra barrier (per-block __syncthreads).
  void barrier() { ++stats_.barriers; }

  /// Runs `body(*this)` and returns the counts it added to the launch.
  template <typename F>
  sim::KernelStats measure(F&& body) {
    const sim::KernelStats before = stats_;
    body(*this);
    return stats_ - before;
  }

  /// Adds counts that measure() returned for an earlier run of a body this
  /// block would repeat exactly (scan and decode records).
  void replay(const sim::KernelStats& counts) { stats_ += counts; }

  /// The shape of a scan over `data`, a span of this block's shared arena,
  /// that starts now.
  ScanShape scan_shape(std::span<const std::uint32_t> data,
                       bool exclusive) const {
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    assert(p >= shared_arena_.data() &&
           p + data.size_bytes() <= shared_arena_.data() + shared_used_);
    return {exclusive, data.size(),
            static_cast<std::size_t>(p - shared_arena_.data()), shared_used_};
  }

  /// Runs `body(*this)` the first time this launch meets `shape` and keeps
  /// the counts it added; a later call with that shape adds them and runs
  /// `host()`, which must leave the block's data as the body would.
  template <typename Body, typename Host>
  void scan_once(const ScanShape& shape, Body&& body, Host&& host) {
    for (const auto& [s, counts] : scans_) {
      if (s == shape) {
        replay(counts);
        host();
        return;
      }
    }
    scans_.emplace_back(shape, measure(body));
  }

 private:
  const sim::GpuSpec& spec_;
  sim::KernelStats& stats_;
  std::uint32_t block_id_;
  std::uint32_t block_dim_;
  std::uint32_t grid_dim_;
  std::size_t shared_used_ = 0;
  std::vector<std::byte> shared_arena_;
  WarpTally tally_;
  /// The launch's scan records: each shape's counts from its first run.
  std::vector<std::pair<ScanShape, sim::KernelStats>> scans_;
};

/// Launch a kernel: `body(Block&)` once per block. Returns the counted work;
/// convert to time with sim::GpuCostModel::kernel_time.
template <typename KernelBody>
sim::KernelStats launch(Device& dev, LaunchConfig cfg, KernelBody&& body) {
  assert(cfg.grid_blocks > 0);
  sim::KernelStats stats;
  stats.blocks = cfg.grid_blocks;
  stats.warps = static_cast<std::uint64_t>(cfg.grid_blocks) *
                ((cfg.block_threads + 31) / 32);
  Block blk(dev.spec(), stats, 0, cfg.block_threads, cfg.grid_blocks);
  for (std::uint32_t b = 0; b < cfg.grid_blocks; ++b) {
    blk.reset_for_block(b);
    body(blk);
  }
  return stats;
}

/// Grid size helper: blocks needed so grid*block >= n threads.
inline std::uint32_t blocks_for(std::uint64_t n, std::uint32_t block_threads) {
  return static_cast<std::uint32_t>(util::div_ceil(n, block_threads));
}

}  // namespace griffin::simt
