// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: counter-RNG cost (per call and step-keyed), tiled-layout and
// grid index math, the diffusion stencil, atomic vs tree reduction on the
// virtual GPU, PGAS collective latency, and conflict-resolution throughput.
// These measure *host wall time* of this repository's implementations (the
// figure benches report modeled target-machine time instead).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "core/grid.hpp"
#include "core/rules.hpp"
#include "gpusim/gpusim.hpp"
#include "pgas/runtime.hpp"
#include "simcov_gpu/layout.hpp"
#include "util/rng.hpp"

namespace {

using namespace simcov;

void BM_RngDraw(benchmark::State& state) {
  const CounterRng rng(7);
  std::uint64_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng.draw(step++, 12345, RngStream::kTCellBid));
  }
}
BENCHMARK(BM_RngDraw);

/// Draws through the step-keyed generator the rules use: the (seed, step)
/// rounds are paid once per step, not once per draw as in BM_RngDraw.
void BM_StepRngDraw(benchmark::State& state) {
  const StepRng rng = CounterRng(7).at(3);
  std::uint64_t entity = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.draw(entity++, RngStream::kTCellBid));
  }
}
BENCHMARK(BM_StepRngDraw);

void BM_RngPoisson(benchmark::State& state) {
  const CounterRng rng(7);
  std::uint64_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rng.poisson(step++, 99, RngStream::kIncubationPeriod,
                    static_cast<double>(state.range(0))));
  }
}
BENCHMARK(BM_RngPoisson)->Arg(8)->Arg(64)->Arg(480);

void BM_TiledLayoutIndex(benchmark::State& state) {
  const gpu::TiledLayout lay(256, 256, static_cast<std::int32_t>(state.range(0)));
  std::int32_t x = 0, y = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lay.index(x, y));
    x = (x + 7) % 256;
    y = (y + 3) % 256;
  }
}
BENCHMARK(BM_TiledLayoutIndex)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Grid::to_coord on a 3D grid with non-power-of-two sides (the id split
/// every extravasation attempt, won intent and bid reply pays).
void BM_GridToCoord(benchmark::State& state) {
  const Grid grid(1000, 999, 3);
  const VoxelId n = grid.num_voxels();
  VoxelId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.to_coord(id));
    id += 7919;
    if (id >= n) id -= n;
  }
}
BENCHMARK(BM_GridToCoord);

void BM_DiffusionStencilRow(benchmark::State& state) {
  const std::int32_t n = 256;
  std::vector<float> field(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> out(field.size());
  for (auto _ : state) {
    for (std::int32_t y = 1; y + 1 < n; ++y) {
      for (std::int32_t x = 1; x + 1 < n; ++x) {
        const std::size_t i = static_cast<std::size_t>(y) * n + x;
        const double sum = static_cast<double>(field[i - 1]) + field[i + 1] +
                           field[i - n] + field[i + n];
        out[i] = rules::diffuse(field[i], sum, 4, 0.15, 1e-5);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2));
}
BENCHMARK(BM_DiffusionStencilRow);

void BM_TCellIntent(benchmark::State& state) {
  const CounterRng rng(11);
  rules::NeighbourView nb;
  nb.count = 4;
  for (int i = 0; i < 4; ++i) {
    nb.ids[static_cast<std::size_t>(i)] = static_cast<VoxelId>(100 + i);
    nb.epi[static_cast<std::size_t>(i)] =
        (i == 2) ? EpiState::kExpressing : EpiState::kHealthy;
  }
  std::uint64_t step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rules::tcell_intent(rng.at(step++), 555, EpiState::kHealthy, nb));
  }
}
BENCHMARK(BM_TCellIntent);

/// Atomic-per-voxel reduction vs shared-memory tree reduction on the
/// virtual GPU (§3.3) — both wall time and counted atomics differ sharply.
void BM_GpuReduce(benchmark::State& state) {
  const bool tree = state.range(0) != 0;
  const std::size_t n = 64 * 1024;
  gpusim::Device dev(0);
  gpusim::DeviceBuffer<float> data(dev, n, 0.25f);
  gpusim::DeviceBuffer<double> out(dev, 1, 0.0);
  const std::uint32_t bd = 128;
  for (auto _ : state) {
    out.fill(0.0);
    if (!tree) {
      dev.parallel_for({static_cast<std::uint32_t>(n / bd), bd}, [&](auto& t) {
        auto v = t.global(data);
        t.global(out).atomic_add(0,
                                 static_cast<double>(v.read(t.global_index())));
      });
    } else {
      const std::uint32_t blocks = 64;
      dev.launch_blocks({blocks, bd}, [&](auto& blk) {
        auto sh = blk.template shared<double>(bd);
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
    }
    benchmark::DoNotOptimize(dev.stats());
  }
  state.counters["atomics/iter"] = static_cast<double>(
      dev.stats().atomic_ops / static_cast<std::uint64_t>(state.iterations()));
}
BENCHMARK(BM_GpuReduce)->Arg(0)->Arg(1);

void BM_PgasAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    pgas::Runtime rt(ranks);
    rt.run([](pgas::Rank& r) {
      double v = static_cast<double>(r.id());
      for (int i = 0; i < 50; ++i) v = r.allreduce_sum(v) / r.world_size();
      benchmark::DoNotOptimize(v);
    });
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_PgasAllreduce)->Arg(2)->Arg(4)->Arg(8);

/// Forwards console output unchanged while recording each benchmark's
/// per-iteration real time (normalized to ns) into the BENCH_*.json report.
class RecordingReporter : public benchmark::BenchmarkReporter {
 public:
  RecordingReporter(benchmark::BenchmarkReporter& inner, bench::Reporter& rep)
      : inner_(inner), rep_(rep) {}

  bool ReportContext(const Context& context) override {
    return inner_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      rep_.metric(run.benchmark_name() + ".real_ns",
                  run.GetAdjustedRealTime() * to_ns);
    }
    inner_.ReportRuns(runs);
  }

  void Finalize() override { inner_.Finalize(); }

 private:
  benchmark::BenchmarkReporter& inner_;
  bench::Reporter& rep_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  bench::Reporter rep(
      "micro_benchmarks", "Micro-benchmarks (host wall time, not modeled)",
      "n/a (design-choice microbenches, not a paper figure)",
      "google-benchmark over RNG / layout / stencil / reduction / PGAS");
  {
    benchmark::ConsoleReporter console;
    RecordingReporter recorder(console, rep);
    benchmark::RunSpecifiedBenchmarks(&recorder);
  }

  // One instrumented end-to-end run so this report — like every bench's —
  // also carries measured + modeled seconds, drift and a comm matrix.
  harness::RunSpec spec;
  spec.params = bench::bench_params(96, 96, 30, 2);
  spec.area_scale = bench::kGpuAreaScale;
  rep.run_gpu("instrumented gpu 4 ranks 96^2 x30", spec, 4);
  rep.finish();
  benchmark::Shutdown();
  return 0;
}
