// Virtual GPU: kernel execution semantics (grid/block/thread indexing,
// shared-memory phases, atomics), the host/device access discipline, and
// event counting — the counters drive the performance model, so their
// exactness is load-bearing.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "gpusim/gpusim.hpp"

namespace simcov::gpusim {
namespace {

TEST(GpuSim, ParallelForCoversEveryThreadOnce) {
  Device dev(0);
  const std::size_t n = 1000;
  DeviceBuffer<std::uint32_t> buf(dev, n, 0);
  dev.parallel_for({8, 128}, [&](ThreadCtx& t) {
    if (t.global_index() >= n) return;
    auto v = t.global(buf);
    v.write(t.global_index(), static_cast<std::uint32_t>(t.global_index()));
  });
  std::vector<std::uint32_t> host(n);
  buf.copy_to_host(host);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(host[i], i);
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().threads_executed, 8u * 128u);
  EXPECT_EQ(dev.stats().blocks_executed, 8u);
}

TEST(GpuSim, ThreadCtxIndexing) {
  Device dev(0);
  DeviceBuffer<std::uint32_t> blocks(dev, 64, 0);
  dev.parallel_for({4, 16}, [&](ThreadCtx& t) {
    EXPECT_EQ(t.global_index(),
              static_cast<std::uint64_t>(t.block_idx()) * t.block_dim() +
                  t.thread_idx());
    EXPECT_EQ(t.grid_size(), 64u);
    auto b = t.global(blocks);
    b.write(t.global_index(), t.block_idx());
  });
  std::vector<std::uint32_t> host(64);
  blocks.copy_to_host(host);
  EXPECT_EQ(host[0], 0u);
  EXPECT_EQ(host[17], 1u);
  EXPECT_EQ(host[63], 3u);
}

TEST(GpuSim, GlobalTrafficIsCounted) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 100, 1.0f);
  const auto before = dev.stats();
  dev.parallel_for({1, 100}, [&](ThreadCtx& t) {
    auto v = t.global(buf);
    const float x = v.read(t.global_index());
    v.write(t.global_index(), x * 2.0f);
  });
  const auto d = dev.stats().since(before);
  EXPECT_EQ(d.global_read_bytes, 100u * sizeof(float));
  EXPECT_EQ(d.global_write_bytes, 100u * sizeof(float));
  EXPECT_EQ(d.atomic_ops, 0u);
}

TEST(GpuSim, AtomicsReturnOldValueAndCount) {
  Device dev(0);
  DeviceBuffer<std::uint64_t> acc(dev, 1, 0);
  dev.parallel_for({2, 50}, [&](ThreadCtx& t) {
    auto v = t.global(acc);
    v.atomic_add(0, 1);
  });
  std::vector<std::uint64_t> host(1);
  acc.copy_to_host(host);
  EXPECT_EQ(host[0], 100u);
  EXPECT_EQ(dev.stats().atomic_ops, 100u);

  DeviceBuffer<std::uint64_t> mx(dev, 1, 5);
  dev.parallel_for({1, 1}, [&](ThreadCtx& t) {
    auto v = t.global(mx);
    EXPECT_EQ(v.atomic_max(0, 3), 5u);  // old value; no change
    EXPECT_EQ(v.atomic_max(0, 9), 5u);  // old value; updated
    EXPECT_EQ(v.read(0), 9u);
  });
}

TEST(GpuSim, SharedMemoryTreeReductionMatchesSerial) {
  Device dev(0);
  const std::size_t n = 4096;
  DeviceBuffer<float> data(dev, n);
  std::vector<float> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = static_cast<float>(i % 17) * 0.25f;
  data.copy_from_host(host);
  DeviceBuffer<double> out(dev, 1, 0.0);

  const std::uint32_t bd = 64, blocks = 8;
  dev.launch_blocks({blocks, bd}, [&](BlockCtx& blk) {
    auto sh = blk.shared<double>(bd);
    blk.for_each_thread([&](std::uint32_t tid) {
      auto v = blk.global(data);
      double acc = 0.0;
      for (std::size_t i = blk.block_idx() * bd + tid; i < n;
           i += static_cast<std::size_t>(blocks) * bd) {
        acc += static_cast<double>(v.read(i));
      }
      sh[tid] = acc;
    });
    for (std::uint32_t off = bd / 2; off > 0; off >>= 1) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid < off) sh[tid] += sh[tid + off];
      });
    }
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) blk.global(out).atomic_add(0, sh[0]);
    });
  });
  std::vector<double> result(1);
  out.copy_to_host(result);
  double expect = 0.0;
  for (float f : host) expect += static_cast<double>(f);
  EXPECT_NEAR(result[0], expect, 1e-9);
  // One atomic per block, not per element (the §3.3 contrast).
  EXPECT_EQ(dev.stats().atomic_ops, static_cast<std::uint64_t>(blocks));
}

TEST(GpuSim, SharedMemoryIsZeroInitializedPerBlock) {
  Device dev(0);
  DeviceBuffer<std::uint32_t> out(dev, 4, 77);
  dev.launch_blocks({4, 8}, [&](BlockCtx& blk) {
    auto sh = blk.shared<std::uint32_t>(8);
    blk.for_each_thread([&](std::uint32_t tid) { sh[tid] += tid; });
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) {
        std::uint32_t sum = 0;
        for (std::uint32_t i = 0; i < 8; ++i) sum += sh[i];
        blk.global(out).write(blk.block_idx(), sum);
      }
    });
  });
  std::vector<std::uint32_t> host(4);
  out.copy_to_host(host);
  for (auto v : host) EXPECT_EQ(v, 28u);  // 0+..+7, no carry-over
}

TEST(GpuSim, HostAccessDuringKernelRejected) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 8, 0.0f);
  std::vector<float> host(8);
  EXPECT_THROW(dev.parallel_for({1, 1},
                                [&](ThreadCtx&) { buf.copy_to_host(host); }),
               Error);
  // The device recovers: the guard releases the kernel flag.
  EXPECT_FALSE(dev.kernel_active());
  buf.copy_to_host(host);
}

TEST(GpuSim, NestedLaunchRejected) {
  Device dev(0);
  EXPECT_THROW(dev.parallel_for({1, 1},
                                [&](ThreadCtx&) {
                                  dev.parallel_for({1, 1}, [](ThreadCtx&) {});
                                }),
               Error);
  EXPECT_FALSE(dev.kernel_active());
}

TEST(GpuSim, ForeignDeviceBufferRejected) {
  Device a(0), b(1);
  DeviceBuffer<float> on_b(b, 4, 0.0f);
  EXPECT_THROW(a.parallel_for({1, 1},
                              [&](ThreadCtx& t) { (void)t.global(on_b); }),
               Error);
}

TEST(GpuSim, OutOfBoundsAccessRejected) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 4, 0.0f);
  EXPECT_THROW(dev.parallel_for({1, 1},
                                [&](ThreadCtx& t) {
                                  (void)t.global(buf).read(4);
                                }),
               Error);
}

TEST(GpuSim, LaunchConfigValidated) {
  Device dev(0);
  EXPECT_THROW(dev.parallel_for({0, 8}, [](ThreadCtx&) {}), Error);
  EXPECT_THROW(dev.parallel_for({1, 2048}, [](ThreadCtx&) {}), Error);
}

TEST(GpuSim, SharedMemoryCapacityEnforced) {
  Device dev(0);
  EXPECT_THROW(dev.launch_blocks({1, 1},
                                 [&](BlockCtx& blk) {
                                   blk.shared<double>(170 * 1024 / 8);
                                 }),
               Error);
}

TEST(GpuSim, CopyBoundsChecked) {
  Device dev(0);
  DeviceBuffer<float> buf(dev, 4, 0.0f);
  std::vector<float> five(5);
  EXPECT_THROW(buf.copy_from_host(five), Error);
  EXPECT_THROW(buf.copy_to_host(five), Error);
}

TEST(GpuSim, CopiesCountH2DAndD2H) {
  Device dev(0);
  DeviceBuffer<double> buf(dev, 10, 0.0);
  std::vector<double> host(10, 2.5);
  buf.copy_from_host(host);
  buf.copy_to_host(host);
  EXPECT_EQ(dev.stats().h2d_bytes, 80u);
  EXPECT_EQ(dev.stats().d2h_bytes, 80u);
}

TEST(GpuSim, FillSetsValuesAndCountsWrites) {
  Device dev(0);
  DeviceBuffer<std::uint32_t> buf(dev, 6, 1);
  buf.fill(9);
  std::vector<std::uint32_t> host(6);
  buf.copy_to_host(host);
  for (auto v : host) EXPECT_EQ(v, 9u);
  EXPECT_EQ(dev.stats().global_write_bytes, 24u);
}

TEST(GpuSim, AllocationTracking) {
  Device dev(0);
  EXPECT_EQ(dev.allocated_bytes(), 0u);
  {
    DeviceBuffer<double> a(dev, 100);
    EXPECT_EQ(dev.allocated_bytes(), 800u);
    DeviceBuffer<double> b = std::move(a);
    EXPECT_EQ(dev.allocated_bytes(), 800u);  // move does not double-count
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

void expect_same_stats(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.kernel_launches, b.kernel_launches);
  EXPECT_EQ(a.blocks_executed, b.blocks_executed);
  EXPECT_EQ(a.threads_executed, b.threads_executed);
  EXPECT_EQ(a.global_read_bytes, b.global_read_bytes);
  EXPECT_EQ(a.global_write_bytes, b.global_write_bytes);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.shared_bytes_allocated, b.shared_bytes_allocated);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
}

// parallel_for's schedule orders: a permuted launch runs the KernelCheck
// replays (reversed, seeded shuffle), then the canonical execution, so one
// launch shows all three: same (block, thread) pairs, canonical in flat
// order k -> (k / block_dim, k % block_dim), and identical counters at the
// end of every execution.
TEST(GpuSim, CanonicalLoopMatchesGenericLoop) {
  for (const LaunchConfig cfg : {LaunchConfig{7, 5, "visit"},
                                 LaunchConfig{1, 1, "visit"},
                                 LaunchConfig{3, 64, "visit"}}) {
    Device dev(0, DeviceOptions{.check_kernels = true,
                                .permute_schedules = true,
                                .defer_check_report = false});
    const std::uint64_t n = cfg.total_threads();
    DeviceBuffer<std::uint32_t> out(dev, n, 0);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> visits;
    std::vector<DeviceStats> at_end;
    dev.parallel_for(cfg, [&](ThreadCtx& t) {
      visits.emplace_back(t.block_idx(), t.thread_idx());
      t.global(out).write(t.global_index(), t.block_idx() * 1000 +
                                                t.thread_idx());
      if (visits.size() % n == 0) at_end.push_back(dev.stats());
    });
    ASSERT_EQ(visits.size(), 3 * n);
    ASSERT_EQ(at_end.size(), 3u);

    const std::vector<std::pair<std::uint32_t, std::uint32_t>> canonical(
        visits.end() - static_cast<std::ptrdiff_t>(n), visits.end());
    for (std::uint64_t k = 0; k < n; ++k) {
      EXPECT_EQ(canonical[k].first, k / cfg.block_dim);
      EXPECT_EQ(canonical[k].second, k % cfg.block_dim);
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> reversed(
        visits.begin(), visits.begin() + static_cast<std::ptrdiff_t>(n));
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_EQ(reversed, canonical);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> shuffled(
        visits.begin() + static_cast<std::ptrdiff_t>(n),
        visits.begin() + static_cast<std::ptrdiff_t>(2 * n));
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, canonical);

    expect_same_stats(at_end[0], at_end[2]);
    expect_same_stats(at_end[1], at_end[2]);
    expect_same_stats(dev.stats(), at_end[2]);
    EXPECT_EQ(dev.stats().kernel_launches, 1u);
    EXPECT_EQ(dev.stats().blocks_executed, cfg.grid_dim);
    EXPECT_EQ(dev.stats().threads_executed, n);
    EXPECT_EQ(dev.stats().global_write_bytes, n * sizeof(std::uint32_t));
  }
}

}  // namespace
}  // namespace simcov::gpusim
