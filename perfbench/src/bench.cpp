#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <unordered_map>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t max_threads() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (::sched_getaffinity(0, sizeof cpus, &cpus) != 0) return 1;
  return std::size_t(std::max(1, CPU_COUNT(&cpus) - 1));
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      // runtime/decision_batch
      {"kernel.prepare_s", "s"},
      {"kernel.run_s", "s"},
      {"kernel.decisions", "count"},
      {"kernel.table_entries", "count"},
      // runtime/thread_pool and batch_evaluator
      {"pool.tasks", "count"},
      {"pool.task_s", "s"},
      {"pool.busy_share", "share"},
      // runtime/sweep_request and core/optimizer
      {"request.reduce_s", "s"},
      {"plan.decode_s", "s"},
      // runtime/shard worker and sink
      {"worker.run_s", "s"},
      {"worker.run_s_max", "s"},
      {"worker.records", "count"},
      {"worker.eval_s", "s"},
      {"sink.flush_s", "s"},
      {"sink.bytes", "B"},
      {"worker.checkpoint_writes", "count"},
      {"disk_bytes_per_record", "B/record"},
      // runtime/shard/merge
      {"merge.fold_s", "s"},
      {"merge.fold_mb_per_s", "MB/s"},
      {"merge.merge_s", "s"},
      // runtime/service, seen through the TimedTransport decorator
      {"transport.coordinator.send_n", "count"},
      {"transport.coordinator.send_s", "s"},
      {"transport.coordinator.poll_n", "count"},
      {"transport.coordinator.poll_s", "s"},
      {"transport.coordinator.poll_empty_share", "share"},
      {"transport.worker.send_n", "count"},
      {"transport.worker.send_s", "s"},
      {"transport.worker.poll_n", "count"},
      {"transport.worker.poll_s", "s"},
      {"transport.worker.poll_empty_share", "share"},
      {"msg.register", "count"},
      {"msg.deregister", "count"},
      {"msg.heartbeat", "count"},
      {"msg.lease_grant", "count"},
      {"msg.lease_complete", "count"},
      {"msg.lease_failed", "count"},
      {"msg.revoke", "count"},
      {"msg.snapshot", "count"},
      {"msg.shutdown", "count"},
      // runtime/service, existing counters and coordinator milestones
      {"transport.retries", "count"},
      {"lease.reassigned", "count"},
      {"lease.expired", "count"},
      {"worker.slices", "count"},
      {"worker.heartbeats", "count"},
      {"coordinator.first_grant_s", "s"},
      {"coordinator.drain_s", "s"},
      // xrsim
      {"gt.frames", "count"},
      {"gt.point_s_p50", "s"},
      {"gt.analytic_share", "share"},
      {"gt_frames_per_s", "1/s"},
      // devices/memo
      {"devices.submodel_lookups", "count"},
      // whole workload
      {"unattributed_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return metrics;
}

double ObsView::counter(const char* name) const {
  const std::uint64_t* v = snapshot.counter(name);
  return v ? double(*v) : 0.0;
}

double ObsView::gauge(const char* name) const {
  const double* v = snapshot.gauge(name);
  return v ? *v : 0.0;
}

double ObsView::histogram_s(const char* name) const {
  const xr::obs::HistogramData* h = snapshot.histogram(name);
  return h ? h->sum / 1000.0 : 0.0;
}

double ObsView::span_s(const char* name) const {
  std::uint64_t us = 0;
  for (const auto& s : trace.spans)
    if (s.name == name) us += s.end_us - s.start_us;
  return double(us) * 1e-6;
}

double ObsView::span_s_max_thread(const char* name) const {
  std::unordered_map<std::uint64_t, std::uint64_t> per_thread;
  for (const auto& s : trace.spans)
    if (s.name == name) per_thread[s.thread_id] += s.end_us - s.start_us;
  std::uint64_t best = 0;
  for (const auto& [thread, us] : per_thread) best = std::max(best, us);
  return double(best) * 1e-6;
}

}  // namespace perfbench
