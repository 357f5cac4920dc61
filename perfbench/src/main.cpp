// xr_perfbench — one benchmark for the library's sweep paths.
//
//   xr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --work-dir DIR [--corrupt-reference]
//
// Set-up (seeded inputs plus a reference output) runs at least five times
// and for at least three seconds; setup_s is the median. One warm-up sweep
// follows and is not timed. Then the peak-RSS high-water mark is reset and
// sweeps run back to back for S seconds, each checked against the
// reference. --trace 0 prints the
// end-to-end metrics. --trace 1 splits the S seconds: an untraced loop
// for the first half (the baseline of trace.overhead_share), traced sweeps
// for the second, and prints the per-layer split (medians over the traced
// sweeps). The last stdout line is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Exit status is 0 only when every
// checked sweep matched.
//
// --corrupt-reference perturbs the reference after set-up, so every sweep
// must fail its check: the benchmark's own test of that check.
#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "devices/memo.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path work_dir;
  bool corrupt_reference = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--work-dir") {
      a.work_dir = value();
    } else if (arg == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || a.work_dir.empty())
    throw std::invalid_argument(
        "usage: xr_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --work-dir DIR [--corrupt-reference]");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// This run's scratch directory, `<work>/run-<pid>`. Construction removes
/// the directories of earlier runs whose process is gone; destruction
/// removes this one.
class ScratchDir {
 public:
  explicit ScratchDir(const fs::path& work) {
    fs::create_directories(work);
    for (const auto& entry : fs::directory_iterator(work)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("run-", 0) != 0) continue;
      const long pid = std::strtol(name.c_str() + 4, nullptr, 10);
      if (pid > 0 && ::kill(pid_t(pid), 0) != 0 && errno == ESRCH)
        fs::remove_all(entry.path());
    }
    path_ = work / ("run-" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

double cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return double(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * double(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Return freed heap to the kernel, then reset the process's peak-RSS
/// high-water mark to its current RSS, so peak_rss_mb() covers only what
/// runs after this call and not the set-ups before it.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush))
    throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

/// Peak resident set size since the last reset_peak_rss(), in MiB
/// (VmHWM from /proc/self/status).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Loop {
  std::vector<double> wall_s;
  double cpu_s = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Layers> layers;  // traced loops only
};

constexpr std::size_t kMinSweeps = 3;
// Set-ups repeat until there are at least kSetupRepeats of them and they
// took kSetupSeconds in all. A median of five back-to-back set-ups varied
// by a third from run to run (IQR over median, ten seeds), both for the
// 4 ms set-up of service_leases and for the 0.3 s one of offload_mono,
// whose speed swings 1.5x within seconds on a shared host.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 3.0;

/// Set `w` up repeatedly and return the median set-up time; `count` gets
/// the number of set-ups. Every set-up must yield the same digest.
double timed_setups(Workload& w, std::uint64_t seed, std::size_t& count) {
  std::vector<double> samples;
  double total_s = 0;
  std::string digest;
  while (samples.size() < kSetupRepeats || total_s < kSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    const std::string d = w.setup(seed);
    samples.push_back(seconds_since(t0));
    total_s += samples.back();
    if (samples.size() > 1 && d != digest)
      throw std::runtime_error("set-up is not deterministic for this seed");
    digest = d;
  }
  count = samples.size();
  return median(samples);
}

/// Sweep back to back for `seconds` (at least kMinSweeps sweeps).
Loop run_loop(Workload& w, const fs::path& scratch, double seconds,
              bool traced) {
  Loop loop;
  const Clock::time_point start = Clock::now();
  while (loop.wall_s.size() < kMinSweeps || seconds_since(start) < seconds) {
    const fs::path dir = scratch / ("sweep" + std::to_string(loop.attempted));
    Layers layers;
    if (traced) {
      for (const LayerMetric& m : layer_metrics()) layers[m.name] = 0;
      xr::obs::Registry::global().reset();
      xr::obs::clear_trace();
    }
    const std::uint64_t lookups = xr::devices::submodel_lookup_count();
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const bool ok = w.sweep(dir, traced ? &layers : nullptr);
    const double wall = seconds_since(t0);
    loop.cpu_s += cpu_seconds() - cpu0;
    if (traced) {
      const ObsView view{xr::obs::Registry::global().snapshot(),
                         xr::obs::capture_trace()};
      w.attribute(layers, view, wall);
      layers["devices.submodel_lookups"] =
          double(xr::devices::submodel_lookup_count() - lookups);
      if (layers.size() != layer_metrics().size())
        throw std::logic_error("a workload reported an unlisted layer metric");
      loop.layers.push_back(std::move(layers));
    }
    fs::remove_all(dir);
    loop.wall_s.push_back(wall);
    ++loop.attempted;
    if (!ok) ++loop.failed;
  }
  return loop;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The result line: the last line of stdout, printed whole or not at all.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("%s}}\n", line.c_str());
}

int run(const Args& args) {
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  const ScratchDir scratch(args.work_dir);

  std::size_t setup_n = 0;
  const double setup_s = timed_setups(*w, args.seed, setup_n);
  std::printf("%s\n", w->describe().c_str());
  std::printf("set-ups %zu, median %.6f s\n", setup_n, setup_s);
  if (args.corrupt_reference) w->corrupt_reference();

  // Warm-up: first-touch allocation, lazy tables and page cache settle
  // here; checked, never timed.
  std::size_t attempted = 1;
  std::size_t failed = w->sweep(scratch.path() / "warmup", nullptr) ? 0 : 1;
  fs::remove_all(scratch.path() / "warmup");

  reset_peak_rss();
  const double plain_s = args.trace ? args.seconds / 2 : args.seconds;
  const Loop plain = run_loop(*w, scratch.path(), plain_s, false);
  const double rss_mb = peak_rss_mb();
  attempted += plain.attempted;
  failed += plain.failed;
  const double sweep_s = median(plain.wall_s);
  const double records = double(w->records());

  std::printf("sweeps %zu untraced, median %.6f s\n", plain.wall_s.size(),
              sweep_s);
  if (!args.trace) {
    print_result(failed == 0, attempted, failed,
                 {{"records_per_s", records / sweep_s, "1/s"},
                  {"sweep_s_p50", sweep_s, "s"},
                  {"cpu_us_per_record",
                   1e6 * plain.cpu_s / (records * double(plain.attempted)),
                   "us/record"},
                  {"peak_rss_mb", rss_mb, "MiB"},
                  {"setup_s", setup_s, "s"}});
    return failed == 0 ? 0 : 1;
  }

  xr::obs::set_trace_capacity(1 << 17);
  const Loop traced =
      run_loop(*w, scratch.path(), args.seconds - plain_s, true);
  attempted += traced.attempted;
  failed += traced.failed;
  Layers out;
  for (const LayerMetric& m : layer_metrics()) {
    std::vector<double> values;
    for (const Layers& l : traced.layers) values.push_back(l.at(m.name));
    out[m.name] = median(values);
  }
  w->probe(scratch.path() / "probe", out);
  fs::remove_all(scratch.path() / "probe");
  out["trace.overhead_share"] = median(traced.wall_s) / sweep_s - 1;
  out["gt_frames_per_s"] = double(w->frames_per_record()) * records / sweep_s;
  if (out.size() != layer_metrics().size())
    throw std::logic_error("a workload reported an unlisted layer metric");

  std::printf("sweeps %zu traced, median %.6f s\n", traced.wall_s.size(),
              median(traced.wall_s));
  std::vector<Metric> metrics;
  for (const LayerMetric& m : layer_metrics())
    metrics.push_back({m.name, out.at(m.name), m.unit});
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "xr_perfbench: %s\n", e.what());
    return 2;
  }
}
