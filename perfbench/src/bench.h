// Shared pieces of the sweep-path benchmark (xr_perfbench): the workload
// interface, the per-layer metric vocabulary, and small timing/statistics
// helpers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/span.h"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median (mean of the two middle values for an even count); 0 for none.
[[nodiscard]] double median(std::vector<double> values);

/// Threads a workload may keep busy: one fewer than the CPUs this process
/// may run on (as `nproc` counts them), at least 1. On a shared host a
/// virtual machine often gets fewer real cores than it has CPUs, and a
/// sweep that keeps every CPU busy then measures the hypervisor's
/// scheduling rather than the library.
[[nodiscard]] std::size_t max_threads();

/// Total size of the regular files under `dir`.
[[nodiscard]] std::uint64_t tree_bytes(const fs::path& dir);

/// One traced sweep's per-layer values, keyed by per-layer metric name.
using Layers = std::map<std::string, double>;

/// A per-layer metric as printed in traced mode.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order (BENCHMARK.json lists the same
/// names). A layer that is not on a workload's path reads 0 there.
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// What a traced sweep leaves in the obs layer, captured right after it.
struct ObsView {
  xr::obs::Snapshot snapshot;
  xr::obs::Trace trace;

  [[nodiscard]] double counter(const char* name) const;
  [[nodiscard]] double gauge(const char* name) const;
  /// Sum of a millisecond histogram, in seconds.
  [[nodiscard]] double histogram_s(const char* name) const;
  /// Summed duration of every retained span with this name, in seconds.
  [[nodiscard]] double span_s(const char* name) const;
  /// Largest per-thread sum of this span's durations, in seconds.
  [[nodiscard]] double span_s_max_thread(const char* name) const;
};

/// One benchmark workload: seeded inputs, a reference output, and a sweep
/// that runs the inputs through one of the library's user-facing paths
/// and checks the output against the reference.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate this seed's inputs and compute the reference output. Returns
  /// a digest of inputs plus reference, so repeated set-ups can be checked
  /// for identity.
  virtual std::string setup(std::uint64_t seed) = 0;
  /// One line naming the inputs, with the request fingerprint.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Grid points one sweep carries through the path.
  [[nodiscard]] virtual std::size_t records() const = 0;
  /// Threads the sweep keeps busy (the denominator of pool.busy_share).
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// Simulated ground-truth frames per grid point (0: analytical path).
  [[nodiscard]] virtual std::size_t frames_per_record() const { return 0; }

  /// Run one sweep with scratch files under `dir`; true when the output
  /// matches the reference. With `layers` non-null (traced mode) the
  /// sweep also times its public calls into it.
  virtual bool sweep(const fs::path& dir, Layers* layers) = 0;
  /// Fill the layer values derived from the obs capture of one traced
  /// sweep that took `wall_s`, including unattributed_share.
  virtual void attribute(Layers& layers, const ObsView& view,
                         double wall_s) const = 0;
  /// One-off layer measurements made outside any sweep's wall time
  /// (e.g. evaluate_point over the sweep's indices), with scratch files
  /// under `dir`.
  virtual void probe(const fs::path& dir, Layers& layers) = 0;

  /// Perturb the reference so every later check must fail (the
  /// benchmark's own test of its correctness check).
  virtual void corrupt_reference() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
