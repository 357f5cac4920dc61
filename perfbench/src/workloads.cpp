// The workloads, each on one user-facing sweep path. Each keeps to the
// library's public entry points; layer times come from timing those calls
// from here plus the obs counters, histograms and spans src/ already
// records.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/framework.h"
#include "core/optimizer.h"
#include "generate.h"
#include "runtime/offload_search.h"
#include "runtime/service/coordinator.h"
#include "runtime/service/message.h"
#include "runtime/service/worker_loop.h"
#include "runtime/shard/evaluator.h"
#include "runtime/shard/merge.h"
#include "runtime/sweep_request.h"
#include "timed_transport.h"

namespace perfbench {
namespace {

namespace rt = xr::runtime;
namespace shard = xr::runtime::shard;
namespace svc = xr::runtime::service;

[[nodiscard]] double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Canonical form of a summary's deterministic fields: its document with
/// the worker throughput stats (wall times) cleared.
std::string summary_digest(shard::MergedSummary s) {
  s.stats = {};
  return s.to_json().dump();
}

std::string describe_request(const char* workload,
                             const rt::SweepRequest& request,
                             std::uint64_t seed, std::size_t points) {
  return std::string("workload ") + workload + " seed " +
         std::to_string(seed) + " points " + std::to_string(points) +
         " fingerprint " + hex64(request.fingerprint()) + " base " +
         draw_base(seed).to_string();
}

/// A plan document that differs from `dump` in one field.
std::string corrupted_plan(const std::string& dump) {
  auto plan = xr::core::OffloadPlan::from_json(xr::core::Json::parse(dump));
  plan.candidates_evaluated += 1;
  return plan.to_json().dump();
}

/// Move a summary's minimum latency by one ulp.
void corrupt_summary(shard::MergedSummary& s) {
  s.min_latency_ms = std::nextafter(s.min_latency_ms, HUGE_VAL);
}

/// The layer values every workload reads the same way from obs.
void registry_layers(Layers& l, const ObsView& v, double wall_s,
                     std::size_t threads) {
  l["kernel.prepare_s"] = v.span_s("kernel.prepare");
  l["kernel.run_s"] = v.span_s("kernel.run");
  l["kernel.decisions"] = v.counter("serving.kernel.decisions");
  l["kernel.table_entries"] = v.gauge("serving.kernel.table_entries");
  l["pool.tasks"] = v.counter("runtime.pool.tasks");
  l["pool.task_s"] = v.histogram_s("runtime.pool.task_ms");
  l["pool.busy_share"] = ratio(l["pool.task_s"], double(threads) * wall_s);
  // run_request's reduce: inside the batched span on the kernel path, its
  // own span on the scalar (ground-truth) path.
  l["request.reduce_s"] =
      l["kernel.run_s"] > 0
          ? v.span_s("request.batched_kernel") - l["kernel.prepare_s"] -
                l["kernel.run_s"]
          : v.span_s("request.reduce");
  l["worker.records"] = v.counter("shard.worker.records_streamed");
  l["sink.flush_s"] = v.histogram_s("shard.sink.flush_ms");
  l["sink.bytes"] = v.counter("shard.sink.binary.bytes") +
                    v.counter("shard.sink.jsonl.bytes");
  l["worker.checkpoint_writes"] = v.counter("shard.worker.checkpoint_writes");
  l["transport.retries"] = v.counter("service.transport.retries");
  l["lease.reassigned"] = v.counter("service.lease.reassigned");
  l["lease.expired"] = v.counter("service.lease.expired");
  l["worker.slices"] = v.counter("service.worker.slices");
  l["worker.heartbeats"] = v.counter("service.worker.heartbeats_sent");
}

/// evaluate_point over every index of the request's grid, serially.
double eval_time_s(const rt::SweepRequest& request) {
  const rt::ScenarioGrid grid = request.grid.build();
  const xr::core::XrPerformanceModel model;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t g = 0; g < grid.size(); ++g)
    (void)shard::evaluate_point(request.evaluator, model, grid.at(g), g);
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// offload_mono: core::plan_offload on a ~2 M-point search — SoA kernel,
// K = 1 reduce, plan decode; no disk, no transport.
class OffloadMono : public Workload {
 public:
  std::string setup(std::uint64_t seed) override {
    seed_ = seed;
    request_ = offload_request(seed, 96, 72);
    request_.execution.threads = max_threads();
    records_ = request_.grid.build().size();
    reference_ = xr::core::plan_offload(request_).to_json().dump();
    return hex64(request_.fingerprint()) + reference_;
  }
  std::string describe() const override {
    return describe_request("offload_mono", request_, seed_, records());
  }
  std::size_t records() const override { return records_; }
  std::size_t threads() const override { return max_threads(); }

  bool sweep(const fs::path&, Layers* layers) override {
    if (!layers)
      return xr::core::plan_offload(request_).to_json().dump() == reference_;
    // plan_offload's two steps, timed apart.
    const shard::MergedSummary summary = rt::run_request(request_);
    const Clock::time_point t0 = Clock::now();
    const xr::core::OffloadPlan plan =
        xr::core::offload_plan_from_summary(request_, summary);
    (*layers)["plan.decode_s"] = seconds_since(t0);
    return plan.to_json().dump() == reference_;
  }

  void attribute(Layers& l, const ObsView& v, double wall_s) const override {
    registry_layers(l, v, wall_s, threads());
    l["unattributed_share"] =
        1 - ratio(l["kernel.prepare_s"] + l["kernel.run_s"] +
                      l["request.reduce_s"] + l["plan.decode_s"],
                  wall_s);
  }
  void probe(const fs::path&, Layers&) override {}

  void corrupt_reference() override {
    reference_ = corrupted_plan(reference_);
  }

 private:
  std::uint64_t seed_ = 0;
  std::size_t records_ = 0;
  rt::SweepRequest request_;
  std::string reference_;
};

// ---------------------------------------------------------------------------
// service_leases: a ~16 k-point request through run_coordinator and up to
// three run_service_worker threads over FsTransport, 16 shards, the tools'
// default poll and heartbeat cadence and JSONL records, one checkpoint
// chunk per shard.
class ServiceLeases : public Workload {
 public:
  static constexpr std::size_t kShards = 16;

  std::string setup(std::uint64_t seed) override {
    seed_ = seed;
    request_ = offload_request(seed, 8, 7);
    request_.execution.threads = 1;
    records_ = request_.grid.build().size();
    // One chunk per shard, so each lease is one slice and one checkpoint.
    // At the default 64-record chunk a lease takes 16 slices, each of
    // which re-parses the shard's JSONL written so far and renames a
    // checkpoint over the last; that made a sweep 1.7-2.5x slower whenever
    // the host was busy, and records/s varied 25-50 % from run to run.
    request_.execution.chunk_records = (records_ + kShards - 1) / kShards;
    reference_ = rt::run_request(request_);
    return hex64(request_.fingerprint()) + summary_digest(reference_);
  }
  std::string describe() const override {
    return describe_request("service_leases", request_, seed_, records());
  }
  std::size_t records() const override { return records_; }
  /// The coordinator plus its workers.
  std::size_t threads() const override { return 1 + workers(); }

  bool sweep(const fs::path& dir, Layers* layers) override {
    // One transport per participant, as when each runs in its own process:
    // an FsTransport instance is not meant to be polled from two threads.
    const std::size_t n = 1 + workers();  // [0] is the coordinator
    std::vector<std::unique_ptr<svc::FsTransport>> fs_transports;
    std::vector<std::unique_ptr<TimedTransport>> timed;
    std::vector<svc::Transport*> endpoints;
    for (std::size_t i = 0; i < n; ++i) {
      fs_transports.push_back(
          std::make_unique<svc::FsTransport>((dir / "mail").string()));
      endpoints.push_back(fs_transports.back().get());
      if (layers) {
        timed.push_back(std::make_unique<TimedTransport>(*endpoints.back()));
        endpoints.back() = timed.back().get();
      }
    }

    svc::CoordinatorOptions options;
    options.shards = kShards;
    options.shard_dir = (dir / "shards").string();

    std::vector<std::string> names;
    for (std::size_t i = 1; i < n; ++i)
      names.push_back(std::string("w").append(std::to_string(i - 1)));
    std::exception_ptr worker_error;
    std::mutex error_mu;
    std::vector<std::jthread> pool;  // joined on every exit path
    for (std::size_t i = 1; i < n; ++i)
      pool.emplace_back([&, i] {
        svc::WorkerLoopOptions wo;
        wo.name = names[i - 1];
        // Fail-safe only: a healthy sweep ends on the coordinator's
        // shutdown long before this.
        wo.idle_timeout_ms = 60'000;
        try {
          (void)svc::run_service_worker(*endpoints[i], wo);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!worker_error) worker_error = std::current_exception();
        }
      });

    const Clock::time_point start = Clock::now();
    svc::CoordinatorResult result;
    try {
      result = svc::run_coordinator(*endpoints[0], request_, options);
    } catch (...) {
      for (const std::string& name : names) {
        try {
          endpoints[0]->send(name, svc::make_shutdown());
        } catch (...) {  // the workers' idle timeout still ends them
        }
      }
      throw;
    }
    const Clock::time_point end = Clock::now();
    for (auto& t : pool) t.join();
    if (worker_error) std::rethrow_exception(worker_error);

    if (layers) record_transport(*layers, timed, start, end, dir);
    return result.quarantined.empty() && result.leases_reassigned == 0 &&
           shard::summaries_equivalent(result.summary, reference_);
  }

  void attribute(Layers& l, const ObsView& v, double wall_s) const override {
    registry_layers(l, v, wall_s, threads());
    // run_worker runs inside the worker loop, one call per slice; its
    // existing span gives the worker-side busy time.
    l["worker.run_s"] = v.span_s("worker.run");
    l["worker.run_s_max"] = v.span_s_max_thread("worker.run");
    l["unattributed_share"] =
        1 - ratio(l["coordinator.first_grant_s"] + l["worker.run_s_max"] +
                      l["coordinator.drain_s"],
                  wall_s);
  }
  /// evaluate_point over the grid, and the merge layer timed on the shard
  /// streams one more sweep leaves behind: partial_from_records over every
  /// shard, as the coordinator folds them, then merge_partials.
  void probe(const fs::path& dir, Layers& l) override {
    l["worker.eval_s"] = eval_time_s(request_);
    (void)sweep(dir, nullptr);
    std::vector<std::string> streams;
    for (const auto& entry : fs::directory_iterator(dir / "shards"))
      if (entry.path().extension() == ".jsonl")
        streams.push_back(entry.path().string());
    if (streams.size() != kShards)
      throw std::runtime_error("service_leases: expected one record stream "
                               "per shard after the probe sweep");
    std::sort(streams.begin(), streams.end());
    std::vector<shard::PartialReduction> partials;
    double folded_bytes = 0;
    Clock::time_point t0 = Clock::now();
    for (const std::string& p : streams) {
      partials.push_back(shard::partial_from_records(p));
      folded_bytes += double(fs::file_size(p));
    }
    l["merge.fold_s"] = seconds_since(t0);
    l["merge.fold_mb_per_s"] = ratio(folded_bytes / 1e6, l["merge.fold_s"]);
    t0 = Clock::now();
    (void)shard::merge_partials(partials);
    l["merge.merge_s"] = seconds_since(t0);
  }

  void corrupt_reference() override { corrupt_summary(reference_); }

 private:
  /// The coordinator mostly sleeps between polls, so only the workers
  /// count against the thread budget.
  static std::size_t workers() {
    return std::clamp<std::size_t>(max_threads(), 1, 3);
  }

  /// Sum the participants' transport statistics into the layer values.
  void record_transport(Layers& l,
                        const std::vector<std::unique_ptr<TimedTransport>>& ts,
                        Clock::time_point start, Clock::time_point end,
                        const fs::path& dir) const {
    TimedTransport::Stats sum;
    for (const auto& t : ts) {
      const TimedTransport::Stats s = t->stats();
      for (std::size_t r = 0; r < 2; ++r) {
        sum.roles[r].send_n += s.roles[r].send_n;
        sum.roles[r].send_s += s.roles[r].send_s;
        sum.roles[r].poll_n += s.roles[r].poll_n;
        sum.roles[r].poll_s += s.roles[r].poll_s;
        sum.roles[r].poll_empty += s.roles[r].poll_empty;
      }
      for (std::size_t k = 0; k < s.sent_by_kind.size(); ++k)
        sum.sent_by_kind[k] += s.sent_by_kind[k];
      if (s.first_grant) sum.first_grant = s.first_grant;
      if (s.last_complete_polled)
        sum.last_complete_polled = s.last_complete_polled;
    }
    const char* roles[] = {"coordinator", "worker"};
    for (std::size_t r = 0; r < 2; ++r) {
      const TimedTransport::RoleStats& rs = sum.roles[r];
      const std::string p = std::string("transport.") + roles[r] + ".";
      l[p + "send_n"] = double(rs.send_n);
      l[p + "send_s"] = rs.send_s;
      l[p + "poll_n"] = double(rs.poll_n);
      l[p + "poll_s"] = rs.poll_s;
      l[p + "poll_empty_share"] =
          ratio(double(rs.poll_empty), double(rs.poll_n));
    }
    for (std::size_t k = 0; k < sum.sent_by_kind.size(); ++k)
      l[std::string("msg.") +
        svc::message_kind_name(static_cast<svc::MessageKind>(k))] =
          double(sum.sent_by_kind[k]);
    if (sum.first_grant)
      l["coordinator.first_grant_s"] =
          std::chrono::duration<double>(*sum.first_grant - start).count();
    if (sum.last_complete_polled)
      l["coordinator.drain_s"] =
          std::chrono::duration<double>(end - *sum.last_complete_polled)
              .count();
    l["disk_bytes_per_record"] =
        ratio(double(tree_bytes(dir)), double(records()));
  }

  std::uint64_t seed_ = 0;
  std::size_t records_ = 0;
  rt::SweepRequest request_;
  shard::MergedSummary reference_;
};

// ---------------------------------------------------------------------------
// gt_validation: run_request over the ground-truth placement boundary grid
// (2 placements × 8 sizes × 8 clocks, 200 frames per point).
class GtValidation : public Workload {
 public:
  static constexpr std::size_t kFrames = 200;

  std::string setup(std::uint64_t seed) override {
    seed_ = seed;
    request_ = gt_request(seed, kFrames);
    request_.execution.threads = max_threads();
    records_ = request_.grid.build().size();
    reference_ = rt::run_request(request_);
    return hex64(request_.fingerprint()) + summary_digest(reference_);
  }
  std::string describe() const override {
    return describe_request("gt_validation", request_, seed_, records());
  }
  std::size_t records() const override { return records_; }
  std::size_t threads() const override { return max_threads(); }
  std::size_t frames_per_record() const override { return kFrames; }

  bool sweep(const fs::path&, Layers*) override {
    const shard::MergedSummary summary = rt::run_request(request_);
    return shard::summaries_equivalent(summary, reference_) &&
           summary_digest(summary) == summary_digest(reference_);
  }

  void attribute(Layers& l, const ObsView& v, double wall_s) const override {
    registry_layers(l, v, wall_s, threads());
    l["gt.frames"] = double(records() * kFrames);
    l["unattributed_share"] =
        1 - ratio(v.span_s("request.map") + v.span_s("request.reduce"),
                  wall_s);
  }

  /// Per-point simulator cost, and the analytical prediction's share of
  /// it, single-threaded over every grid point.
  void probe(const fs::path&, Layers& l) override {
    const rt::ScenarioGrid grid = request_.grid.build();
    const xr::core::XrPerformanceModel model;
    std::vector<double> point_s;
    double gt_total = 0, analytic_total = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const xr::core::ScenarioConfig scenario = grid.at(i);
      Clock::time_point t0 = Clock::now();
      (void)shard::evaluate_point(request_.evaluator, model, scenario, i);
      point_s.push_back(seconds_since(t0));
      gt_total += point_s.back();
      t0 = Clock::now();
      (void)model.evaluate(scenario);
      analytic_total += seconds_since(t0);
    }
    l["gt.point_s_p50"] = median(point_s);
    l["gt.analytic_share"] = ratio(analytic_total, gt_total);
  }

  void corrupt_reference() override { corrupt_summary(reference_); }

 private:
  std::uint64_t seed_ = 0;
  std::size_t records_ = 0;
  rt::SweepRequest request_;
  shard::MergedSummary reference_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "offload_mono") return std::make_unique<OffloadMono>();
  if (name == "service_leases") return std::make_unique<ServiceLeases>();
  if (name == "gt_validation") return std::make_unique<GtValidation>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
