// Semantics and work-counting of the SIMT simulator: thread indexing,
// shared memory, barriers, warp-max divergence accounting, memory
// coalescing, bank conflicts, atomics.
#include "simt/kernel.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "simt_reference.h"
#include "util/fields.h"
#include "util/rng.h"

namespace gs = griffin::simt;

namespace {
gs::Device make_device() { return gs::Device(); }

// A trivially copyable 12-byte element: unlike u32/u64, it can straddle a
// 128-byte segment boundary.
struct Triple {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};
static_assert(sizeof(Triple) == 12);
}  // namespace

TEST(SimtKernel, ThreadIndexing) {
  auto dev = make_device();
  auto out = dev.alloc<std::uint32_t>(512);
  gs::launch(dev, {4, 128}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) {
      EXPECT_EQ(t.gid(), t.block_id() * 128 + t.tid());
      EXPECT_EQ(t.lane(), t.tid() % 32);
      EXPECT_EQ(t.warp(), t.tid() / 32);
      t.store(out, t.gid(), t.gid());
    });
  });
  std::vector<std::uint32_t> host(512);
  dev.download(std::span<std::uint32_t>(host), out);
  for (std::uint32_t i = 0; i < 512; ++i) EXPECT_EQ(host[i], i);
}

TEST(SimtKernel, LaunchCountsBlocksAndWarps) {
  auto dev = make_device();
  const auto stats = gs::launch(dev, {7, 96}, [&](gs::Block&) {});
  EXPECT_EQ(stats.blocks, 7u);
  EXPECT_EQ(stats.warps, 7u * 3u);  // 96 threads = 3 warps
}

TEST(SimtKernel, SharedMemoryPersistsAcrossRegions) {
  auto dev = make_device();
  auto out = dev.alloc<std::uint32_t>(1);
  gs::launch(dev, {1, 64}, [&](gs::Block& blk) {
    auto sh = blk.shared<std::uint32_t>(64);
    blk.for_each_thread([&](gs::Thread& t) {
      t.sstore(std::span<std::uint32_t>(sh), t.tid(), t.tid() + 1);
    });
    blk.for_each_thread([&](gs::Thread& t) {
      if (t.tid() == 0) {
        std::uint32_t sum = 0;
        for (std::uint32_t i = 0; i < 64; ++i) {
          sum += t.sload(std::span<const std::uint32_t>(sh), i);
        }
        t.store(out, 0, sum);
      }
    });
  });
  std::vector<std::uint32_t> host(1);
  dev.download(std::span<std::uint32_t>(host), out);
  EXPECT_EQ(host[0], 64u * 65u / 2u);
}

TEST(SimtKernel, SharedBudgetEnforced) {
  auto dev = make_device();
  EXPECT_THROW(gs::launch(dev, {1, 32},
                          [&](gs::Block& blk) {
                            blk.shared<std::uint8_t>(49 * 1024);
                          }),
               std::runtime_error);
}

TEST(SimtKernel, WarpTimeIsMaxOverLanes) {
  auto dev = make_device();
  // One warp; one lane charges 1000 cycles, others 1: SIMT lockstep means
  // the warp pays ~1000, not the sum and not the average.
  const auto stats = gs::launch(dev, {1, 32}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) {
      t.charge(t.tid() == 5 ? 1000.0 : 1.0);
    });
  });
  EXPECT_GE(stats.warp_cycles, 1000.0);
  EXPECT_LT(stats.warp_cycles, 1010.0);
}

TEST(SimtKernel, DivergenceCostsMoreThanUniform) {
  auto dev = make_device();
  auto work = [&](bool divergent) {
    return gs::launch(dev, {4, 128}, [&](gs::Block& blk) {
             blk.for_each_thread([&](gs::Thread& t) {
               // Same total work either way: 64 cycles avg per lane.
               const double c = divergent ? (t.lane() < 16 ? 128.0 : 0.0)
                                          : 64.0;
               t.charge(c);
             });
           })
        .warp_cycles;
  };
  EXPECT_NEAR(work(false), 4 * 4 * 64.0, 1.0);
  EXPECT_NEAR(work(true), 4 * 4 * 128.0, 1.0);  // 2x from divergence
}

TEST(SimtKernel, CoalescedLoadsMakeOneTransactionPerWarp) {
  auto dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(1024);
  // 32 lanes read 32 consecutive 4-byte words = exactly one 128B segment.
  const auto stats = gs::launch(dev, {1, 32}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) { (void)t.load(buf, t.lane()); });
  });
  EXPECT_EQ(stats.global_transactions, 1u);
  EXPECT_EQ(stats.global_bytes_requested, 128u);
  EXPECT_DOUBLE_EQ(stats.coalescing_efficiency(dev.spec()), 1.0);
}

TEST(SimtKernel, ScatteredLoadsMakeOneTransactionPerLane) {
  auto dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(32 * 64);
  // Each lane reads 256 bytes apart: 32 distinct segments.
  const auto stats = gs::launch(dev, {1, 32}, [&](gs::Block& blk) {
    blk.for_each_thread(
        [&](gs::Thread& t) { (void)t.load(buf, t.lane() * 64ull); });
  });
  EXPECT_EQ(stats.global_transactions, 32u);
  EXPECT_LT(stats.coalescing_efficiency(dev.spec()), 0.05);
}

TEST(SimtKernel, AccessOrdinalsCoalesceIndependently) {
  auto dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(4096);
  // Two accesses per lane, both coalesced within their ordinal: 2 txns.
  const auto stats = gs::launch(dev, {1, 32}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) {
      (void)t.load(buf, t.lane());
      (void)t.load(buf, 2048 + t.lane());
    });
  });
  EXPECT_EQ(stats.global_transactions, 2u);
}

TEST(SimtKernel, StraddlingAccessCountsTwoSegments) {
  auto dev = make_device();
  auto buf = dev.alloc<Triple>(64);
  // Device bases are 256-byte aligned, so element 10 spans bytes 120..131:
  // one access, two 128-byte segments.
  const auto one = gs::launch(dev, {1, 1}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) { (void)t.load(buf, 10); });
  });
  EXPECT_EQ(one.global_transactions, 2u);
  EXPECT_EQ(one.global_bytes_requested, 12u);

  // 32 lanes read elements 0..31: bytes 0..383, three segments.
  const auto warp = gs::launch(dev, {1, 32}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) { (void)t.load(buf, t.lane()); });
  });
  EXPECT_EQ(warp.global_transactions, 3u);
  EXPECT_EQ(warp.global_bytes_requested, 384u);
}

TEST(SimtKernel, BankConflictsCharged) {
  auto conflict_cycles = [](std::uint32_t stride) {
    gs::Device d;
    gs::launch(d, {1, 32}, [&](gs::Block& blk) {
      auto sh = blk.shared<std::uint32_t>(32 * stride + 1);
      blk.for_each_thread([&](gs::Thread& t) {
        t.sstore(std::span<std::uint32_t>(sh), t.lane() * stride, 1u);
      });
    });
    return gs::launch(d, {1, 32}, [&](gs::Block& blk) {
             auto sh = blk.shared<std::uint32_t>(32 * stride + 1);
             blk.for_each_thread([&](gs::Thread& t) {
               t.sstore(std::span<std::uint32_t>(sh), t.lane() * stride, 1u);
             });
           })
        .shared_conflict_cycles;
  };
  EXPECT_DOUBLE_EQ(conflict_cycles(1), 0.0);   // stride 1: conflict-free
  EXPECT_GT(conflict_cycles(32), 20.0);        // stride 32: all same bank
}

TEST(SimtKernel, BarriersCounted) {
  auto dev = make_device();
  const auto stats = gs::launch(dev, {3, 64}, [&](gs::Block& blk) {
    blk.for_each_thread([](gs::Thread&) {});  // implicit barrier
    blk.barrier();                            // explicit barrier
  });
  EXPECT_EQ(stats.barriers, 3u * 2u);
}

TEST(SimtKernel, AtomicAddReturnsOldAndAccumulates) {
  auto dev = make_device();
  auto counter = dev.alloc<std::uint32_t>(1);
  const std::vector<std::uint32_t> zero{0};
  dev.upload(counter, std::span<const std::uint32_t>(zero));

  std::vector<std::uint32_t> tickets(256, 0);
  gs::launch(dev, {2, 128}, [&](gs::Block& blk) {
    blk.for_each_thread([&](gs::Thread& t) {
      tickets[t.gid()] = t.atomic_add(counter, 0, 1u);
    });
  });
  std::vector<std::uint32_t> host(1);
  dev.download(std::span<std::uint32_t>(host), counter);
  EXPECT_EQ(host[0], 256u);
  // Tickets are a permutation of 0..255.
  std::sort(tickets.begin(), tickets.end());
  for (std::uint32_t i = 0; i < 256; ++i) EXPECT_EQ(tickets[i], i);
}

TEST(SimtKernel, ContendedAtomicsCostMoreThanSpread) {
  auto dev = make_device();
  auto buf = dev.alloc<std::uint32_t>(32);
  auto cycles = [&](bool contended) {
    return gs::launch(dev, {1, 32}, [&](gs::Block& blk) {
             blk.for_each_thread([&](gs::Thread& t) {
               t.atomic_add(buf, contended ? 0 : t.lane(), 1u);
             });
           })
        .warp_cycles;
  };
  EXPECT_GT(cycles(true), cycles(false) + 100.0);
}

// ---------------------------------------------------------------------------
// Differential test: the simulator's folded counts against the logged
// analyzer (tests/simt_reference.h) on randomized scripted lane programs.

namespace {

namespace ref = griffin::simt::reference;
using griffin::util::Xoshiro256;

// How a region's global accesses walk their buffer.
enum class Walk { kCoalesced, kStrided, kScattered, kReverse, kSameAddress };

enum class OpKind {
  kLoad,
  kStore,
  kSharedLoad,
  kSharedStore,
  kAtomic,
  kCharge,
};

// One region's script. Every lane runs the same op sequence (so the o-th
// accesses of a warp's lanes line up) unless `jitter` swaps some ops per lane;
// with `uneven`, lanes stop after a random prefix, possibly empty.
struct RegionScript {
  Walk walk = Walk::kCoalesced;
  std::uint64_t stride = 1;      // words between lanes, for kStrided
  std::uint32_t elem_bytes = 4;  // 4, 8 or 12: the buffer global ops use
  std::uint32_t shared_stride = 1;
  bool contended_atomics = false;
  bool uneven = false;
  bool jitter = false;
  std::vector<OpKind> ops;
};

struct Buffers {
  static constexpr std::uint64_t kElems = 4096;
  gs::DeviceBuffer<std::uint32_t> u32;
  gs::DeviceBuffer<std::uint64_t> u64;
  gs::DeviceBuffer<Triple> u96;
};

constexpr std::size_t kSharedWords = 4096;

// Runs a lane's ops through the simulator and logs each one for the oracle,
// with the issue costs the simulator charges.
class Recorder {
 public:
  Recorder(gs::Thread& t, ref::LaneLog& log) : t_(t), log_(log) {}

  template <typename T>
  void global(gs::DeviceBuffer<T>& buf, std::uint64_t i, bool load) {
    if (load) {
      (void)t_.load(buf, i);
    } else {
      t_.store(buf, i, T{});
    }
    log_global(buf.device_addr(i), sizeof(T));
  }
  void sload(std::span<std::uint32_t> sh, std::size_t i) {
    (void)t_.sload(std::span<const std::uint32_t>(sh), i);
    log_shared(&sh[i]);
  }
  void sstore(std::span<std::uint32_t> sh, std::size_t i) {
    t_.sstore(sh, i, std::uint32_t{1});
    log_shared(&sh[i]);
  }
  void atomic_add(gs::DeviceBuffer<std::uint32_t>& buf, std::uint64_t i) {
    (void)t_.atomic_add(buf, i, 1u);
    log_atomic(buf.device_addr(i), sizeof(std::uint32_t));
  }
  void atomic_max(gs::DeviceBuffer<std::uint64_t>& buf, std::uint64_t i) {
    (void)t_.atomic_max(buf, i, std::uint64_t{7});
    log_atomic(buf.device_addr(i), sizeof(std::uint64_t));
  }
  void charge(double cycles) {
    t_.charge(cycles);
    log_.alu += cycles;
  }

 private:
  void log_global(std::uint64_t addr, std::uint32_t bytes) {
    log_.alu += gs::kGlobalAccessCycles;
    log_.global.push_back({addr, bytes});
  }
  void log_shared(const std::uint32_t* p) {
    log_.alu += gs::kSharedAccessCycles;
    const std::uintptr_t word = reinterpret_cast<std::uintptr_t>(p) / 4;
    log_.shared_banks.push_back(static_cast<std::uint32_t>(word % 32));
  }
  void log_atomic(std::uint64_t addr, std::uint32_t bytes) {
    log_global(addr, bytes);
    log_.atomic_addrs.push_back(addr);
    log_.alu += 2 * gs::kAluCycle;
  }

  gs::Thread& t_;
  ref::LaneLog& log_;
};

std::uint64_t global_index(const RegionScript& s, std::uint32_t tid,
                           std::uint32_t dim, std::uint64_t k,
                           Xoshiro256& rng) {
  switch (s.walk) {
    case Walk::kCoalesced:
      return (k * dim + tid) % Buffers::kElems;
    case Walk::kStrided:
      return (tid * s.stride + k) % Buffers::kElems;
    case Walk::kScattered:
      return rng.bounded(Buffers::kElems);
    case Walk::kReverse:
      return (k * dim + (dim - 1 - tid)) % Buffers::kElems;
    case Walk::kSameAddress:  // all lanes on one address per ordinal
      break;
  }
  return (3 * k) % Buffers::kElems;
}

void run_lane(const RegionScript& s, gs::Thread& t, Buffers& bufs,
              std::span<std::uint32_t> sh, ref::LaneLog& log,
              Xoshiro256& rng) {
  Recorder rec(t, log);
  const std::size_t n =
      s.uneven ? rng.bounded(s.ops.size() + 1) : s.ops.size();
  std::uint64_t global_k = 0;
  std::uint64_t shared_k = 0;
  std::uint64_t atomic_k = 0;
  for (std::size_t k = 0; k < n; ++k) {
    OpKind op = s.ops[k];
    if (s.jitter && rng.bounded(4) == 0) {
      op = static_cast<OpKind>(rng.bounded(6));
    }
    switch (op) {
      case OpKind::kLoad:
      case OpKind::kStore: {
        const std::uint64_t i =
            global_index(s, t.tid(), t.block_dim(), global_k++, rng);
        const bool load = op == OpKind::kLoad;
        if (s.elem_bytes == 4) {
          rec.global(bufs.u32, i, load);
        } else if (s.elem_bytes == 8) {
          rec.global(bufs.u64, i, load);
        } else {
          rec.global(bufs.u96, i, load);
        }
        break;
      }
      case OpKind::kSharedLoad:
      case OpKind::kSharedStore: {
        const std::size_t i =
            (t.tid() * s.shared_stride + shared_k++) % kSharedWords;
        if (op == OpKind::kSharedLoad) {
          rec.sload(sh, i);
        } else {
          rec.sstore(sh, i);
        }
        break;
      }
      case OpKind::kAtomic: {
        const std::uint64_t i =
            s.contended_atomics ? atomic_k % 2 : t.gid() % Buffers::kElems;
        if (atomic_k++ % 3 == 2) {
          rec.atomic_max(bufs.u64, i);
        } else {
          rec.atomic_add(bufs.u32, i);
        }
        break;
      }
      case OpKind::kCharge:
        rec.charge(static_cast<double>(rng.bounded(6)) * gs::kAluCycle);
        break;
    }
  }
  // One lane in 37 runs long: the block-wide ALU maximum must notice it.
  if (t.gid() % 37 == 5) rec.charge(100 * gs::kAluCycle);
}

RegionScript make_script(std::uint64_t c, std::uint32_t r, Xoshiro256& rng) {
  static constexpr std::uint64_t kStrides[] = {2, 8, 32, 33};
  static constexpr std::uint32_t kElemBytes[] = {4, 8, 12};
  static constexpr std::uint32_t kSharedStrides[] = {1, 2, 16, 32, 33};
  RegionScript s;
  s.walk = static_cast<Walk>((c + r) % 5);
  s.stride = kStrides[(c / 5 + r) % 4];
  s.elem_bytes = kElemBytes[(c / 2 + r) % 3];
  s.shared_stride = kSharedStrides[(c + 2 * r) % 5];
  s.contended_atomics = (c + r) % 2 == 0;
  s.uneven = (c / 3 + r) % 3 == 0;
  s.jitter = (c / 7 + r) % 4 == 0;
  const std::size_t nops = 1 + rng.bounded(12);
  for (std::size_t k = 0; k < nops; ++k) {
    const std::uint64_t roll = rng.bounded(100);
    s.ops.push_back(roll < 45   ? OpKind::kLoad
                    : roll < 60 ? OpKind::kStore
                    : roll < 72 ? OpKind::kSharedLoad
                    : roll < 82 ? OpKind::kSharedStore
                    : roll < 90 ? OpKind::kAtomic
                                : OpKind::kCharge);
  }
  return s;
}

void expect_same_stats(const griffin::sim::KernelStats& got,
                       const griffin::sim::KernelStats& want,
                       std::uint64_t c) {
  SCOPED_TRACE("case " + std::to_string(c));
  // Exact for the double counts too: every charge is whole cycles.
  griffin::util::for_each_field<griffin::sim::KernelStats>(
      [&](const auto& f) {
        EXPECT_EQ(got.*f.member, want.*f.member) << f.key;
      });
}

}  // namespace

TEST(SimtKernel, FoldedCountsMatchLoggedAnalyzer) {
  static constexpr std::uint32_t kDims[] = {32, 48, 100, 128, 256};
  constexpr std::uint64_t kCases = 240;
  auto dev = make_device();
  Buffers bufs{dev.alloc<std::uint32_t>(Buffers::kElems),
               dev.alloc<std::uint64_t>(Buffers::kElems),
               dev.alloc<Triple>(Buffers::kElems)};
  for (std::uint64_t c = 0; c < kCases; ++c) {
    Xoshiro256 rng(0x51a7c0de + c);
    const std::uint32_t dim = kDims[c % 5];
    const auto grid = static_cast<std::uint32_t>(1 + rng.bounded(3));
    const auto nregions = static_cast<std::uint32_t>(1 + rng.bounded(3));
    std::vector<RegionScript> scripts;
    for (std::uint32_t r = 0; r < nregions; ++r) {
      scripts.push_back(make_script(c, r, rng));
    }
    std::vector<ref::RegionLog> logs;
    std::uint64_t extra_barriers = 0;
    const auto got = gs::launch(dev, {grid, dim}, [&](gs::Block& blk) {
      auto sh = blk.shared<std::uint32_t>(kSharedWords);
      for (std::uint32_t r = 0; r < nregions; ++r) {
        ref::RegionLog& log = logs.emplace_back(dim);
        blk.for_each_thread([&](gs::Thread& t) {
          run_lane(scripts[r], t, bufs, sh, log[t.tid()], rng);
        });
        if (r % 2 == 1) {
          blk.barrier();
          ++extra_barriers;
        }
      }
    });
    const auto want = ref::analyze(
        logs, grid, dim, dev.spec().mem_transaction_bytes, extra_barriers);
    expect_same_stats(got, want, c);
  }
}
