// Benchmark binary: runs one named SIMCoV workload through the public
// harness entry points (harness::run_gpu / harness::run_cpu) and prints its
// raw samples as one JSON object on stdout.  simbench/run.py builds this
// binary, calls it, and reduces the samples to the metrics BENCHMARK.json
// declares.
//
//   simbench reference <workload> <seed> <out>
//       Serial ReferenceSim run of the workload; writes the per-step
//       statistics series the oracle compares every timed run against.
//   simbench measure <workload> <seed> <seconds> <ref>
//       Repeats the harness call with every collector off until <seconds>
//       have passed, each followed by eight zero-step calls that do set-up
//       alone; one sample per call (wall, step-loop wall, process CPU time,
//       modeled seconds, oracle verdict) plus the process peak RSS.
//   simbench trace <workload> <seed> <seconds> <ref> <out_dir>
//       A few untraced calls (the baseline for the tracing overhead), then
//       calls with KernelProf (GPU), CritPath, MemScope and the metrics
//       registry on, then timings of single-layer public functions: the
//       PGAS Rank primitives, ReferenceSim::step and stencil::diffuse_row.
//       Writes the metrics snapshot of each traced call and a Chrome trace
//       of the binary's own spans into <out_dir>.
//
// Every sample carries the oracle verdict: the integer statistics of every
// step must equal the reference exactly; the field totals, which the
// backends sum in rank order, must agree within kFieldRelTol.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/decomposition.hpp"
#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "core/reference_sim.hpp"
#include "core/stats.hpp"
#include "core/stencil.hpp"
#include "harness/experiment.hpp"
#include "obs/critpath.hpp"
#include "obs/memscope.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "perfmodel/cost_model.hpp"
#include "pgas/runtime.hpp"

namespace {

using namespace simcov;
using Clock = std::chrono::steady_clock;

/// Rank threads per run; run.py records it next to nproc.
constexpr int kRanks = 4;

/// Relative tolerance for the double-valued per-step totals.
constexpr double kFieldRelTol = 1e-9;

struct Workload {
  const char* name;
  bool gpu;
  std::int32_t dim;    ///< square 2D grid edge
  std::int32_t lattice;  ///< FOI: one per cell of a lattice x lattice split
  std::int64_t steps;
  bool hotspot;  ///< FOI confined to rank 0's quadrant, early T cells
};

constexpr Workload kWorkloads[] = {
    {"gpu_spread", true, 512, 4, 160, false},
    {"cpu_spread", false, 1024, 8, 300, false},
    {"cpu_hotspot", false, 512, 8, 250, true},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + std::string(name) + "'");
}

/// Stratified random FOI: the region (the whole grid, or rank 0's quadrant
/// for a hotspot) is cut into lattice x lattice cells and each cell gets one
/// FOI at a position drawn from the seed.  Placement changes with the seed
/// while the infected area per rank, and so the work, stays comparable.
std::vector<VoxelId> place_foi(const Workload& w, std::uint64_t seed) {
  const Grid grid(w.dim, w.dim, 1);
  Coord origin{0, 0, 0};
  Coord extent{w.dim, w.dim, 1};
  if (w.hotspot) {
    const Decomposition decomp(grid, kRanks, Decomposition::Kind::kBlock2D);
    origin = decomp.sub(0).origin;
    extent = decomp.sub(0).extent;
  }
  std::vector<VoxelId> foi;
  for (int cy = 0; cy < w.lattice; ++cy) {
    for (int cx = 0; cx < w.lattice; ++cx) {
      const std::int32_t x0 = split_start(extent.x, w.lattice, cx);
      const std::int32_t y0 = split_start(extent.y, w.lattice, cy);
      const Grid cell(split_start(extent.x, w.lattice, cx + 1) - x0,
                      split_start(extent.y, w.lattice, cy + 1) - y0, 1);
      const std::uint64_t cell_seed =
          seed * 1000003u + static_cast<std::uint64_t>(cy * w.lattice + cx);
      Coord c = cell.to_coord(foi_uniform_random(cell, 1, cell_seed)[0]);
      c.x += origin.x + x0;
      c.y += origin.y + y0;
      foi.push_back(grid.to_id(c));
    }
  }
  return foi;
}

harness::RunSpec make_spec(const Workload& w, std::uint64_t seed) {
  harness::RunSpec spec;
  spec.params = SimParams::bench_fast();
  spec.params.dim_x = w.dim;
  spec.params.dim_y = w.dim;
  spec.params.num_steps = w.steps;
  spec.params.num_foi = static_cast<std::int64_t>(w.lattice) * w.lattice;
  spec.params.seed = seed;
  if (w.hotspot) {
    spec.params.tcell_initial_delay = 20;
    spec.params.tcell_generation_rate = 200;
  }
  spec.params.validate();
  spec.foi = place_foi(w, seed);
  return spec;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

void write_series(const std::string& path, const TimeSeries& ts) {
  std::ofstream f(path);
  f.precision(17);
  for (const StepStats& s : ts) {
    f << s.virus_total << ' ' << s.chem_total;
    for (std::uint64_t c : s.epi_counts) f << ' ' << c;
    f << ' ' << s.tcells_tissue << ' ' << s.extravasated << ' '
      << s.tcells_vascular << '\n';
  }
  if (!f.good()) throw std::runtime_error("cannot write " + path);
}

TimeSeries read_series(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  TimeSeries ts;
  StepStats s;
  while (f >> s.virus_total >> s.chem_total) {
    for (std::uint64_t& c : s.epi_counts) f >> c;
    f >> s.tcells_tissue >> s.extravasated >> s.tcells_vascular;
    if (!f) throw std::runtime_error("malformed reference " + path);
    ts.push_back(s);
  }
  return ts;
}

bool close(double a, double b) {
  return std::fabs(a - b) <=
         kFieldRelTol * std::max(std::fabs(a), std::fabs(b));
}

/// Empty when `got` matches the reference series, else the first mismatch.
std::string oracle_diff(const TimeSeries& got, const TimeSeries& want) {
  if (got.size() != want.size()) {
    return "series has " + std::to_string(got.size()) + " steps, reference " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const StepStats& a = got[i];
    const StepStats& b = want[i];
    const std::string at = "step " + std::to_string(i) + ": ";
    for (std::size_t k = 0; k < a.epi_counts.size(); ++k) {
      if (a.epi_counts[k] != b.epi_counts[k]) {
        return at + "epi_counts[" + std::to_string(k) + "] " +
               std::to_string(a.epi_counts[k]) + " != " +
               std::to_string(b.epi_counts[k]);
      }
    }
    if (a.tcells_tissue != b.tcells_tissue) return at + "tcells_tissue";
    if (a.extravasated != b.extravasated) return at + "extravasated";
    if (!close(a.virus_total, b.virus_total)) return at + "virus_total";
    if (!close(a.chem_total, b.chem_total)) return at + "chem_total";
    if (!close(a.tcells_vascular, b.tcells_vascular)) {
      return at + "tcells_vascular";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Spans: the binary's own Chrome trace, kept in memory, written at the end.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span on the same tid, or -1
};

/// One thread's span list.  Each rank thread owns its own, merged after
/// the job, so recording needs no lock.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}

  /// Runs `fn` as a span named `name`, nested in the innermost open span;
  /// returns the span's duration in ns.
  template <typename Fn>
  double span(std::string name, Fn&& fn) {
    const int parent = open_.empty() ? -1 : open_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), tid_, 0, 0, parent});
    open_.push_back(id);
    spans_.back().start_ns = obs::now_ns();
    try {
      fn();
    } catch (...) {
      close_span(id);
      throw;
    }
    return close_span(id);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double close_span(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = obs::now_ns();
    open_.pop_back();
    return static_cast<double>(s.end_ns - s.start_ns);
  }

  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      f << (first ? "\n" : ",\n");
      first = false;
      f << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
  }
  f << "\n]}\n";
  if (!f.good()) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += quoted(k) + ":" + num(v);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Harness calls
// ---------------------------------------------------------------------------

struct Sample {
  double run_wall_s = 0.0;
  double step_loop_wall_s = 0.0;
  double cpu_s = 0.0;
  double modeled_s = 0.0;
  std::string error;  ///< empty when the call returned and matched the oracle
  std::map<std::string, double> layers;  ///< traced calls only
};

std::string sample_json(const Sample& s) {
  std::string out = "{\"run_wall_s\":" + num(s.run_wall_s) +
                    ",\"step_loop_wall_s\":" + num(s.step_loop_wall_s) +
                    ",\"cpu_s\":" + num(s.cpu_s) +
                    ",\"modeled_s\":" + num(s.modeled_s) +
                    ",\"error\":" + quoted(s.error);
  if (!s.layers.empty()) out += ",\"layers\":" + object(s.layers);
  return out + "}";
}

/// Names which collector is on in an untraced call, or "" when none is:
/// from the call's result, and from the switches that would turn one on in
/// a call that leaves no trace in its result (a zero-step call has no
/// critical path to report).
std::string collectors_on(const harness::BackendResult& r) {
  if (obs::tracer().enabled()) return "tracer";
  if (obs::metrics().enabled()) return "metrics registry";
  if (!r.kernel_profile.empty() || obs::profile_env()) return "KernelProf";
  if (!r.memory.empty() || obs::memscope_env()) return "MemScope";
  if (r.critpath.steps() != 0 || obs::critpath_env()) return "CritPath";
  return "";
}

/// Per-layer figures of one traced call, read from the public result.
std::map<std::string, double> layer_figures(const Workload& w,
                                            const harness::BackendResult& r,
                                            const Sample& s) {
  std::map<std::string, double> m;
  const double steps = static_cast<double>(w.steps);
  const std::string backend = w.gpu ? "gpu." : "cpu.";
  for (int p = 0; p < perfmodel::kNumPhases; ++p) {
    const auto phase = static_cast<perfmodel::Phase>(p);
    const std::string name = perfmodel::phase_name(phase);
    m["model." + name + "_s"] = r.cost.by_phase[static_cast<std::size_t>(p)];
    if (!w.gpu && phase == perfmodel::Phase::kTileSweep) continue;
    m[backend + name + ".critical_s"] = r.critpath.crit_phase_ns(p) / 1e9;
    m[backend + name + ".wait_s"] = r.critpath.attributed_wait_ns(p) / 1e9;
  }
  m["critpath.imbalance"] = r.critpath.imbalance_factor();
  m["critpath.churn"] = r.critpath.churn();
  m["sched.idle_s"] = kRanks * s.step_loop_wall_s - s.cpu_s;

  const pgas::CommStats c = r.comm_total();
  const double per = kRanks * steps;
  m["pgas.barriers_per_step"] = static_cast<double>(c.barriers) / per;
  m["pgas.puts_per_step"] = static_cast<double>(c.puts) / per;
  m["pgas.put_bytes_per_step"] = static_cast<double>(c.put_bytes) / per;
  m["pgas.rpcs_per_step"] = static_cast<double>(c.rpcs_sent) / per;
  m["pgas.reductions_per_step"] = static_cast<double>(c.reductions) / per;
  m["pgas.barrier_wait_s"] = static_cast<double>(c.barrier_wait_ns) / 1e9;

  for (const auto& [cat, bytes] : r.memory.categories()) {
    m["mem." + cat + ".peak_bytes"] = static_cast<double>(bytes);
  }
  for (const obs::KernelStats& k : r.kernel_profile) {
    const std::string key = "kernel." + k.kernel;
    m[key + ".s"] += static_cast<double>(k.wall_ns) / 1e9;
    m[key + ".bytes"] += static_cast<double>(k.read_bytes + k.write_bytes);
    m[key + ".launches"] += static_cast<double>(k.launches);
  }
  return m;
}

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, const std::string& ref_path)
      : w_(w), spec_(make_spec(w, seed)), ref_(read_series(ref_path)) {}

  /// One harness call with every collector off.
  Sample untraced() {
    return collectors_off(call(spec_, "harness.untraced", ref_));
  }

  /// One zero-step harness call with every collector off: construction,
  /// initialisation, harvest and teardown only, i.e. the set-up of a run.
  Sample setup_only() {
    harness::RunSpec spec = spec_;
    spec.params.num_steps = 0;
    return collectors_off(call(spec, "harness.setup", {}));
  }

  /// One harness call with KernelProf (GPU), CritPath, MemScope and the
  /// metrics registry on; the snapshot goes to `metrics_path`.
  Sample traced(const std::string& metrics_path) {
    harness::RunSpec spec = spec_;
    spec.profile = w_.gpu;
    spec.critpath = true;
    spec.memscope = true;
    harness::configure_observability("", metrics_path);
    Sample s = call(spec, "harness.traced", ref_);
    obs::metrics().flush();
    obs::metrics().disable();
    if (s.error.empty()) s.layers = layer_figures(w_, last_, s);
    return s;
  }

  /// Median wall time of one ReferenceSim::step, in ms, over the first
  /// steps of the workload (at least 3, then until `budget_s` has passed).
  double ref_step_ms(double budget_s) {
    ReferenceSim sim(spec_.params, spec_.foi);
    std::vector<double> ms;
    const Clock::time_point t0 = Clock::now();
    while (static_cast<std::int64_t>(sim.current_step()) < w_.steps &&
           (ms.size() < 3 || seconds_since(t0) < budget_s)) {
      ms.push_back(main_.span("core.ReferenceSim::step", [&] { sim.step(); }) /
                   1e6);
    }
    return median(ms);
  }

  /// Median ns of one stencil::diffuse_row call at the workload's row
  /// width, over batches of calls that ping-pong two rows.
  double diffuse_row_ns(double budget_s) {
    const std::int32_t n = w_.dim;
    const std::size_t len = static_cast<std::size_t>(n) + 2;
    std::vector<float> a(len), b(len, 0.0f), ym(len), yp(len);
    std::uint64_t x = spec_.params.seed * 2654435761u + 1;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<float>(x >> 40) / static_cast<float>(1u << 24);
    };
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = next();
      ym[i] = next();
      yp[i] = next();
    }
    constexpr int kBatch = 2000;
    const double diffusion = spec_.params.virus_diffusion;
    const double eps = spec_.params.min_virus;
    std::vector<double> ns;
    float* in = a.data();
    float* out = b.data();
    const Clock::time_point t0 = Clock::now();
    while (ns.size() < 5 || seconds_since(t0) < budget_s) {
      const double batch_ns =
          main_.span("core.diffuse_row x" + std::to_string(kBatch), [&] {
            for (int i = 0; i < kBatch; ++i) {
              stencil::diffuse_row(in + 1, ym.data(), yp.data(), out + 1, n,
                                   4, diffusion, eps);
              std::swap(in, out);
            }
          });
      ns.push_back(batch_ns / kBatch);
    }
    checksum_ += in[1];
    return median(ns);
  }

  /// Median µs of each public Rank primitive, timed inside one
  /// Runtime::run job at the workload's rank count.
  std::map<std::string, double> pgas_us(int iters) {
    // One subdomain edge of one float field: the unit of a halo put.
    const std::size_t strip =
        static_cast<std::size_t>(w_.dim / 2) * sizeof(float);
    constexpr int kChannel = 7;
    std::vector<SpanLog> logs;
    for (int r = 0; r < kRanks; ++r) logs.emplace_back(100 + r);
    std::vector<std::map<std::string, std::vector<double>>> us(kRanks);
    pgas::Runtime rt(kRanks);
    rt.run([&](pgas::Rank& rank) {
      SpanLog& log = logs[static_cast<std::size_t>(rank.id())];
      auto& mine = us[static_cast<std::size_t>(rank.id())];
      const int peer = (rank.id() + 1) % rank.world_size();
      const std::vector<std::byte> payload(strip, std::byte{1});
      const std::array<double, StepStats::kFlatSize> flat{};
      rank.register_channel(kChannel, strip);
      rank.barrier();
      auto timed = [&](const char* name, auto&& fn) {
        mine[name].push_back(log.span(name, fn) / 1e3);
      };
      for (int i = 0; i < iters; ++i) {
        timed("pgas.barrier", [&] { rank.barrier(); });
        timed("pgas.put", [&] { rank.put(peer, kChannel, payload); });
        rank.barrier();  // completes the put epoch before the next one
        timed("pgas.allreduce", [&] {
          rank.allreduce_sum(std::span<const double>(flat));
        });
        timed("pgas.rpc_quiescence", [&] {
          rank.rpc(peer, [] {});
          rank.rpc_quiescence();
        });
      }
    });
    std::map<std::string, std::vector<double>> all;
    for (const auto& mine : us) {
      for (const auto& [k, v] : mine) {
        all[k].insert(all[k].end(), v.begin(), v.end());
      }
    }
    for (const SpanLog& log : logs) rank_logs_.push_back(log);
    return {{"pgas.barrier_us", median(all["pgas.barrier"])},
            {"pgas.put_us", median(all["pgas.put"])},
            {"pgas.allreduce_us", median(all["pgas.allreduce"])},
            {"pgas.rpc_quiescence_us", median(all["pgas.rpc_quiescence"])}};
  }

  void write_trace(const std::string& path) const {
    std::vector<const SpanLog*> logs{&main_};
    for (const SpanLog& log : rank_logs_) logs.push_back(&log);
    write_chrome_trace(path, logs);
  }

  double checksum() const { return checksum_; }

 private:
  /// Times one harness call and checks its series against `want`.
  Sample call(const harness::RunSpec& spec, const char* span,
              const TimeSeries& want) {
    Sample s;
    const double c0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    try {
      main_.span(span, [&] {
        last_ = w_.gpu ? harness::run_gpu(spec, kRanks)
                       : harness::run_cpu(spec, kRanks);
      });
    } catch (const std::exception& e) {
      s.error = std::string("threw: ") + e.what();
    }
    s.run_wall_s = seconds_since(t0);
    s.cpu_s = process_cpu_s() - c0;
    if (!s.error.empty()) return s;
    s.step_loop_wall_s = last_.step_loop_wall_s;
    s.modeled_s = last_.modeled_seconds;
    s.error = oracle_diff(last_.history, want);
    return s;
  }

  Sample collectors_off(Sample s) const {
    if (s.error.empty()) {
      const std::string on = collectors_on(last_);
      if (!on.empty()) s.error = on + " is on in an untraced run";
    }
    return s;
  }

  const Workload& w_;
  harness::RunSpec spec_;
  TimeSeries ref_;
  harness::BackendResult last_;
  SpanLog main_{0};
  std::vector<SpanLog> rank_logs_;
  double checksum_ = 0.0;
};

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::string samples_json(const std::vector<Sample>& v) {
  std::string out = "[";
  for (const Sample& s : v) {
    if (out.size() > 1) out += ",";
    out += "\n" + sample_json(s);
  }
  return out + "]";
}

/// Calls `fn` until `seconds` have passed since `t0`, at least `min_calls`
/// times.
std::vector<Sample> repeat(const std::function<Sample()>& fn,
                           Clock::time_point t0, double seconds,
                           std::size_t min_calls) {
  std::vector<Sample> out;
  while (out.size() < min_calls || seconds_since(t0) < seconds) {
    out.push_back(fn());
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: simbench reference <workload> <seed> <out>\n"
               "       simbench measure <workload> <seed> <seconds> <ref>\n"
               "       simbench trace <workload> <seed> <seconds> <ref> "
               "<out_dir>\n");
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string mode = argv[1];
  const Workload& w = find_workload(argv[2]);
  const std::uint64_t seed = std::stoull(argv[3]);
  const std::string head =
      "{\"workload\":" + quoted(w.name) + ",\"seed\":" + std::to_string(seed) +
      ",\"ranks\":" + std::to_string(kRanks) +
      ",\"voxels\":" + std::to_string(static_cast<long long>(w.dim) * w.dim) +
      ",\"steps\":" + std::to_string(w.steps);

  if (mode == "reference") {
    harness::BackendResult r = harness::run_reference(make_spec(w, seed));
    write_series(argv[4], r.history);
    std::printf("%s,\"reference_wall_s\":%s}\n", head.c_str(),
                num(r.measured_wall_s).c_str());
    return 0;
  }
  if (argc < 6) return usage();
  const double seconds = std::stod(argv[4]);
  Bench bench(w, seed, argv[5]);
  const Clock::time_point t0 = Clock::now();

  if (mode == "measure") {
    // Eight set-up-only calls after each full call, so set-up is sampled
    // across the whole run.
    std::vector<Sample> samples;
    std::vector<Sample> setup;
    while (samples.size() < 3 || seconds_since(t0) < seconds) {
      samples.push_back(bench.untraced());
      for (int i = 0; i < 8; ++i) setup.push_back(bench.setup_only());
    }
    std::printf("%s,\"samples\":%s,\"setup\":%s,\"peak_rss_kb\":%s}\n",
                head.c_str(), samples_json(samples).c_str(),
                samples_json(setup).c_str(), num(peak_rss_kb()).c_str());
    return 0;
  }
  if (mode != "trace" || argc < 7) return usage();
  const std::string dir = argv[6];
  // Budget: 35% untraced calls, 35% traced calls, the rest single layers.
  const std::vector<Sample> untraced =
      repeat([&] { return bench.untraced(); }, t0, 0.35 * seconds, 2);
  int traced_calls = 0;
  const std::vector<Sample> traced = repeat(
      [&] {
        return bench.traced(dir + "/metrics-" + std::to_string(traced_calls++) +
                            ".json");
      },
      t0, 0.7 * seconds, 2);
  const double rest = std::max(1.0, seconds - seconds_since(t0));
  std::map<std::string, double> micro = bench.pgas_us(1000);
  micro["core.ref_step_ms"] = bench.ref_step_ms(0.5 * rest);
  micro["core.diffuse_row_ns"] = bench.diffuse_row_ns(0.25 * rest);
  bench.write_trace(dir + "/trace.json");
  std::printf("%s,\"samples\":%s,\"traced\":%s,\"single_layer\":%s,"
              "\"checksum\":%s}\n",
              head.c_str(), samples_json(untraced).c_str(),
              samples_json(traced).c_str(), object(micro).c_str(),
              num(bench.checksum()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
