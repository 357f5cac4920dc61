#include "runtime/decision_batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>

#include "core/energy_model.h"
#include "core/latency_model.h"
#include "core/pipeline.h"
#include "devices/power.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace xr::runtime {

namespace {

// Serving-kernel telemetry: prepare (table build, model walks) vs run
// (branch-free sweep) is the split the ≥2× SoA gate cares about. Nothing
// is recorded inside eval_range — the hot loop stays clock-free.
struct KernelMetrics {
  obs::Counter prepares{"serving.kernel.prepares"};
  obs::Histogram prepare_ms{"serving.kernel.prepare_ms",
                            obs::Histogram::latency_bounds_ms()};
  obs::Gauge table_entries{"serving.kernel.table_entries"};
  obs::Counter runs{"serving.kernel.runs"};
  obs::Counter decisions{"serving.kernel.decisions"};
  obs::Histogram run_ms{"serving.kernel.run_ms",
                        obs::Histogram::latency_bounds_ms()};
  obs::Gauge decisions_per_sec{"serving.kernel.last_decisions_per_sec"};

  static KernelMetrics& get() {
    static KernelMetrics m;
    return m;
  }
};

}  // namespace

namespace {

std::atomic<bool> g_batch_kernel_enabled{true};

/// Which placement path a segment belongs to. Off-path segments stay at
/// the literal 0.0 the scalar LatencyBreakdown/EnergyBreakdown carries.
enum class PathMask { kAny, kLocalOnly, kRemoteOnly };

/// Which power rail charges a segment (Eq. 20/21 vs the radio states).
enum class EnergySource { kCompute, kRadioRx, kRadioTx, kRadioIdleWait };

/// One Eq. (1) segment's dependency tuple: the serializable knobs its
/// LatencyModel method (and energy counterpart) reads. An axis outside a
/// segment's set provably cannot change that segment's value, which is
/// what licenses pinning it at coordinate 0 during table fill. `placement`
/// appears wherever the segment is path-masked (the mask reads it) or the
/// value itself branches on it (rendering's result-delivery term).
struct SegmentRecipe {
  PathMask mask;
  EnergySource energy;
  std::vector<const char*> deps;
};

/// Indexed in the exact order LatencyModel::evaluate sums Eq. (1) — the
/// reduction loops in eval_range rely on it.
const std::array<SegmentRecipe, 11>& segment_recipes() {
  static const std::array<SegmentRecipe, 11> recipes = {{
      // frame generation
      {PathMask::kAny,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size"}},
      // volumetric data
      {PathMask::kAny,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size"}},
      // external sensors (radio receive; sensor set is never an axis)
      {PathMask::kAny, EnergySource::kRadioRx, {}},
      // rendering (result delivery crosses memory or wireless → placement
      // and throughput are genuine value dependencies, not just a mask)
      {PathMask::kAny,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "throughput_mbps", "placement"}},
      // frame conversion
      {PathMask::kLocalOnly,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "placement"}},
      // encoding
      {PathMask::kRemoteOnly,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "codec_mbps", "placement"}},
      // local inference
      {PathMask::kLocalOnly,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "local_cnn", "placement"}},
      // remote inference (device idles on the radio while edges work)
      {PathMask::kRemoteOnly,
       EnergySource::kRadioIdleWait,
       {"cpu_ghz", "omega_c", "frame_size", "edge_cnn", "edge_count",
        "codec_mbps", "placement"}},
      // transmission
      {PathMask::kRemoteOnly,
       EnergySource::kRadioTx,
       {"frame_size", "codec_mbps", "throughput_mbps", "placement"}},
      // handoff (mobility config is base-constant)
      {PathMask::kRemoteOnly, EnergySource::kRadioTx, {"placement"}},
      // cooperation
      {PathMask::kAny, EnergySource::kRadioTx, {"throughput_mbps"}},
  }};
  return recipes;
}

constexpr std::size_t kCooperation = 10;

double segment_latency_ms(const core::LatencyModel& m, std::size_t seg,
                          const core::ScenarioConfig& s) {
  switch (seg) {
    case 0: return m.frame_generation_ms(s);
    case 1: return m.volumetric_ms(s);
    case 2: return m.external_sensors_ms(s);
    case 3: return m.rendering_ms(s);
    case 4: return m.frame_conversion_ms(s);
    case 5: return m.encoding_ms(s);
    case 6: return m.local_inference_ms(s);
    case 7: return m.remote_inference_ms(s);
    case 8: return m.transmission_ms(s);
    case 9: return m.handoff_ms(s);
    default: return m.cooperation_ms(s);
  }
}

/// Every knob the recipes above map. A grid using anything else (a future
/// vocabulary extension) is not eligible — prepare() returns nullopt and
/// the caller keeps the scalar path, instead of a stale dependency map
/// silently computing wrong totals.
constexpr const char* kKnownKnobs[] = {
    "frame_size", "cpu_ghz",    "omega_c",  "codec_mbps", "throughput_mbps",
    "edge_count", "placement",  "local_cnn", "edge_cnn"};

/// Run `body` on the pool the BatchOptions convention names: 0 the
/// process-wide shared pool, N a dedicated pool of N workers (a pool of 1
/// runs everything inline on the caller — the strict serial path).
template <typename Body>
void on_pool(const BatchOptions& options, Body&& body) {
  if (options.threads == 0) {
    body(ThreadPool::shared());
  } else {
    ThreadPool pool(options.threads);
    body(pool);
  }
}

/// Smallest auto chunk, in items: a run() candidate costs tens of ns, a
/// prepare() table entry (one materialized, validated scenario) about 1 µs,
/// so each floor keeps a chunk well above the cost of claiming it.
constexpr std::size_t kRunMinChunk = 1024;
constexpr std::size_t kPrepareMinChunk = 64;

/// Consecutive items per task when splitting `n` over `pool`: the caller's
/// grain, else ~8 chunks per worker, never below `floor`.
std::size_t chunk_length(std::size_t n, std::size_t grain, std::size_t floor,
                         const ThreadPool& pool) {
  if (grain) return grain;
  return std::max(floor, n / (8 * pool.size()) + 1);
}

}  // namespace

void set_batch_decision_kernel(bool enabled) noexcept {
  g_batch_kernel_enabled.store(enabled, std::memory_order_relaxed);
}

bool batch_decision_kernel_enabled() noexcept {
  return g_batch_kernel_enabled.load(std::memory_order_relaxed);
}

std::optional<DecisionBatchKernel> DecisionBatchKernel::prepare(
    const GridSpec& spec, const core::XrPerformanceModel& model,
    const BatchOptions& options) {
  const obs::Span span("kernel.prepare");
  const auto prep_start = std::chrono::steady_clock::now();
  for (const AxisSpec& axis : spec.axes) {
    const bool known =
        std::any_of(std::begin(kKnownKnobs), std::end(kKnownKnobs),
                    [&](const char* k) { return axis.knob == k; });
    if (!known) return std::nullopt;
  }
  const ScenarioGrid grid = spec.build();

  DecisionBatchKernel kernel;
  kernel.model_ = model;
  kernel.size_ = grid.size();
  kernel.radix_.reserve(grid.axis_count());
  for (std::size_t k = 0; k < grid.axis_count(); ++k)
    kernel.radix_.push_back(grid.axis(k).points.size());

  const core::LatencyModel& latency = model.latency_model();
  const devices::PowerModel& power = model.energy_model().power_model();
  const core::RadioPowerConfig& radio = model.energy_model().radio();
  const auto& recipes = segment_recipes();

  // Shape every table first: its dependency axes, in declaration order
  // (the order the strides below assume), and its zeroed entries.
  std::array<std::vector<std::size_t>, 11> dep_axes;
  std::size_t total_entries = 0;
  for (std::size_t seg = 0; seg < recipes.size(); ++seg) {
    SegmentTable& table = kernel.tables_[seg];
    for (std::size_t k = 0; k < spec.axes.size(); ++k)
      for (const char* dep : recipes[seg].deps)
        if (spec.axes[k].knob == dep) {
          dep_axes[seg].push_back(k);
          break;
        }

    std::size_t entries = 1;
    for (std::size_t a : dep_axes[seg]) entries *= kernel.radix_[a];
    table.terms.resize(dep_axes[seg].size());
    std::size_t stride = 1;
    for (std::size_t j = dep_axes[seg].size(); j-- > 0;) {
      table.terms[j] = SegmentTable::IndexTerm{dep_axes[seg][j], stride};
      stride *= kernel.radix_[dep_axes[seg][j]];
    }
    table.latency_ms.assign(entries, 0.0);
    table.energy_mj.assign(entries, 0.0);
    total_entries += entries;
  }

  // Fill entries [begin, end) of one segment's table. Materialize one real
  // scenario per dependency tuple — through the grid's own appliers, never
  // a re-implementation of them — and read the segment off the same
  // compiled model methods the scalar path calls. Non-dependency
  // coordinates stay pinned at 0. Each entry is a pure function of its
  // tuple written to its own slot, so the tables are identical for every
  // split of the work across threads.
  const auto fill = [&](std::size_t seg, std::size_t begin, std::size_t end) {
    const SegmentRecipe& recipe = recipes[seg];
    const std::vector<std::size_t>& axes = dep_axes[seg];
    SegmentTable& table = kernel.tables_[seg];
    std::vector<std::size_t> coords(kernel.radix_.size(), 0);
    for (std::size_t flat = begin; flat < end; ++flat) {
      std::size_t rest = flat;
      for (std::size_t j = axes.size(); j-- > 0;) {
        coords[axes[j]] = rest % kernel.radix_[axes[j]];
        rest /= kernel.radix_[axes[j]];
      }
      const core::ScenarioConfig s = grid.at(grid.index_of(coords));
      core::validate(s);

      const bool local =
          s.inference.placement == core::InferencePlacement::kLocal;
      bool on_path = recipe.mask == PathMask::kAny ||
                     (recipe.mask == PathMask::kLocalOnly && local) ||
                     (recipe.mask == PathMask::kRemoteOnly && !local);
      // Eq. (1) adds cooperation only when the scenario both runs it and
      // counts it; both flags are base constants, so the whole table holds
      // exactly the 0.0 the scalar sum adds.
      if (seg == kCooperation &&
          !(s.cooperation.active && s.cooperation.include_in_total))
        on_path = false;
      if (!on_path) continue;

      const double lat = segment_latency_ms(latency, seg, s);
      table.latency_ms[flat] = lat;
      switch (recipe.energy) {
        case EnergySource::kCompute:
          // Same call chain as the scalar path: Eq. (21) mean power for
          // this scenario's allocation, times the segment duration.
          table.energy_mj[flat] = power.segment_energy_mj(
              lat, s.client.cpu_ghz, s.client.gpu_ghz, s.client.omega_c);
          break;
        case EnergySource::kRadioRx:
          table.energy_mj[flat] = radio.rx_mw * lat / 1000.0;
          break;
        case EnergySource::kRadioTx:
          table.energy_mj[flat] = radio.tx_mw * lat / 1000.0;
          break;
        case EnergySource::kRadioIdleWait:
          table.energy_mj[flat] = radio.idle_wait_mw * lat / 1000.0;
          break;
      }
    }
  };

  on_pool(options, [&](ThreadPool& pool) {
    // One task list over every segment, in serial fill order, so small
    // tables share workers with the large ones under a single barrier.
    struct FillTask {
      std::size_t seg, begin, end;
    };
    const std::size_t chunk = chunk_length(total_entries, options.grain,
                                           kPrepareMinChunk, pool);
    std::vector<FillTask> tasks;
    for (std::size_t seg = 0; seg < recipes.size(); ++seg) {
      const std::size_t entries = kernel.tables_[seg].latency_ms.size();
      for (std::size_t b = 0; b < entries; b += chunk)
        tasks.push_back({seg, b, std::min(entries, b + chunk)});
    }
    // A task stops at its first refused tuple; the caller gets the refusal
    // of the earliest task, which is the one the serial fill would have
    // met first — the same exception at every thread count.
    std::vector<std::exception_ptr> errors(tasks.size());
    pool.parallel_for(
        tasks.size(),
        [&](std::size_t t) {
          try {
            fill(tasks[t].seg, tasks[t].begin, tasks[t].end);
          } catch (...) {
            errors[t] = std::current_exception();
          }
        },
        1);
    for (const std::exception_ptr& error : errors)
      if (error) std::rethrow_exception(error);
  });

  KernelMetrics& metrics = KernelMetrics::get();
  metrics.prepares.add();
  metrics.prepare_ms.observe(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - prep_start)
                                 .count());
  metrics.table_entries.set(double(kernel.table_entries()));
  return kernel;
}

std::size_t DecisionBatchKernel::table_entries() const noexcept {
  std::size_t total = 0;
  for (const SegmentTable& t : tables_) total += t.latency_ms.size();
  return total;
}

void DecisionBatchKernel::eval_range(std::size_t begin, std::size_t end,
                                     double* latency_out,
                                     double* energy_out) const {
  const std::size_t n_axes = radix_.size();
  std::vector<std::size_t> coords(n_axes, 0);
  std::size_t rest = begin;
  for (std::size_t k = n_axes; k-- > 0;) {
    coords[k] = rest % radix_[k];
    rest /= radix_[k];
  }
  const devices::PowerModel& power = model_.energy_model().power_model();

  std::array<double, 11> lat{}, nrg{};
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const SegmentTable& table = tables_[t];
      std::size_t idx = 0;
      for (const SegmentTable::IndexTerm& term : table.terms)
        idx += coords[term.axis] * term.stride;
      lat[t] = table.latency_ms[idx];
      nrg[t] = table.energy_mj[idx];
    }

    // Eq. (1) in LatencyModel::evaluate's exact left-to-right association;
    // off-path segments contribute the same literal 0.0 the scalar
    // breakdown fields hold.
    double total_ms = lat[0];
    for (std::size_t t = 1; t < lat.size(); ++t) total_ms += lat[t];

    // Eq. (19): segment_sum, then base and thermal. base/thermal stay
    // out-of-line PowerModel calls so the multiply happens in the same
    // compiled code as the scalar path — an inline multiply here could be
    // contracted into the following addition (FMA) and round differently.
    double segment_sum = nrg[0];
    for (std::size_t t = 1; t < nrg.size(); ++t) segment_sum += nrg[t];
    double total_mj = segment_sum;
    total_mj += power.base_energy_mj(total_ms);
    total_mj += power.thermal_energy_mj(segment_sum);

    latency_out[i] = total_ms;
    energy_out[i] = total_mj;

    // Mixed-radix odometer, last axis fastest — ScenarioGrid::coords order.
    for (std::size_t k = n_axes; k-- > 0;) {
      if (++coords[k] < radix_[k]) break;
      coords[k] = 0;
    }
  }
}

DecisionBatchKernel::Totals DecisionBatchKernel::run(
    const BatchOptions& options) const {
  const obs::Span span("kernel.run");
  Totals out;
  out.latency_ms.resize(size_);
  out.energy_mj.resize(size_);
  const auto start = std::chrono::steady_clock::now();

  on_pool(options, [&](ThreadPool& pool) {
    out.threads = pool.size();
    // Chunks of consecutive indices so each task pays one odometer seed;
    // writes land in disjoint ranges, so results are thread-invariant.
    const std::size_t chunk =
        chunk_length(size_, options.grain, kRunMinChunk, pool);
    pool.parallel_for(
        (size_ + chunk - 1) / chunk,
        [&](std::size_t c) {
          const std::size_t b = c * chunk;
          eval_range(b, std::min(size_, b + chunk), out.latency_ms.data(),
                     out.energy_mj.data());
        },
        1);
  });

  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  KernelMetrics& metrics = KernelMetrics::get();
  metrics.runs.add();
  metrics.decisions.add(size_);
  metrics.run_ms.observe(out.wall_ms);
  metrics.decisions_per_sec.set(
      out.wall_ms > 0 ? 1000.0 * double(size_) / out.wall_ms : 0.0);
  return out;
}

shard::MergedSummary DecisionBatchKernel::run_summary(
    std::uint64_t fingerprint, const ExecutionSpec& execution) const {
  const Totals totals = run(BatchOptions{execution.threads, execution.grain});
  const shard::ShardIdentity id{0, 1, shard::ShardStrategy::kRange, size_,
                                fingerprint};
  shard::PartialReduction partial(id, false);
  for (std::size_t i = 0; i < size_; ++i)
    partial.add(i, totals.latency_ms[i], totals.energy_mj[i]);
  partial.wall_ms = totals.wall_ms;
  partial.threads = totals.threads;
  return shard::merge_partials({partial});
}

std::optional<shard::MergedSummary> try_run_request_batched(
    const SweepRequest& request, const core::XrPerformanceModel& model) {
  if (!batch_decision_kernel_enabled()) return std::nullopt;
  // Ground-truth and adaptive requests need per-point simulation — there
  // is nothing to hoist; only the pure analytical model factors by axis.
  if (request.adaptive || request.evaluator.is_ground_truth())
    return std::nullopt;
  const auto kernel = DecisionBatchKernel::prepare(
      request.grid, model,
      BatchOptions{request.execution.threads, request.execution.grain});
  if (!kernel) return std::nullopt;
  return kernel->run_summary(request.fingerprint(), request.execution);
}

}  // namespace xr::runtime
