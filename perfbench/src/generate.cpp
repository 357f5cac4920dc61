#include "generate.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/framework.h"
#include "core/optimizer.h"
#include "runtime/offload_search.h"

namespace perfbench {
namespace {

/// SplitMix64: a self-contained, platform-independent stream, so a seed
/// names the same inputs on every machine and library version.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

double round_to(double v, double step) { return std::round(v / step) * step; }

/// `n` strictly ascending values, one drawn uniformly from each of n equal
/// strata of [lo, hi], rounded to `step`.
std::vector<double> stratified(SplitMix& rng, std::size_t n, double lo,
                               double hi, double step) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = round_to(lo + (hi - lo) * (double(i) + rng.unit()) / double(n),
                        step);
    if (!out.empty() && v <= out.back()) v = out.back() + step;
    out.push_back(v);
  }
  return out;
}

/// Independent streams per purpose, all derived from the one seed.
SplitMix stream(std::uint64_t seed, std::uint64_t purpose) {
  SplitMix mix(seed ^ (purpose * 0xd1342543de82ef95ULL));
  return SplitMix(mix.next());
}

xr::core::ScenarioConfig base_scenario(const BaseDraw& draw) {
  xr::core::ScenarioConfig s =
      xr::core::make_remote_scenario(draw.frame_size, draw.cpu_ghz);
  s.network.throughput_mbps = draw.throughput_mbps;
  return s;
}

}  // namespace

std::string BaseDraw::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "frame_size=%.0f cpu_ghz=%.2f throughput_mbps=%.1f",
                frame_size, cpu_ghz, throughput_mbps);
  return buf;
}

BaseDraw draw_base(std::uint64_t seed) {
  SplitMix rng = stream(seed, 1);
  BaseDraw d;
  d.frame_size = round_to(300 + 400 * rng.unit(), 1);
  d.cpu_ghz = round_to(1 + 2 * rng.unit(), 0.01);
  d.throughput_mbps = round_to(20 + 60 * rng.unit(), 0.1);
  return d;
}

xr::runtime::SweepRequest offload_request(std::uint64_t seed,
                                          std::size_t omega_points,
                                          std::size_t bitrate_points) {
  SplitMix rng = stream(seed, 2);
  xr::core::OffloadSearchSpace space;
  space.omega_c_grid = stratified(rng, omega_points, 0, 1, 1e-4);
  space.codec_bitrates_mbps = stratified(rng, bitrate_points, 1, 10, 0.01);
  // Every on-device CNN of Table II against both edge detectors, on one to
  // eight parallel edge servers (9 · 2 · 8 · 2 placements = 288).
  space.local_cnns = {"MobileNetv1_240_Float", "MobileNetv1_240_Quant",
                      "MobileNetv2_300_Float", "MobileNetv2_300_Quant",
                      "MobileNetv2_640_Float", "MobileNetv2_640_Quant",
                      "EfficientNet_Float",    "EfficientNet_Quant",
                      "NasNet_Float"};
  space.edge_cnns = {"YoloV3", "YoloV7"};
  space.edge_counts = {1, 2, 3, 4, 5, 6, 7, 8};
  const double alpha = round_to(0.2 + 0.6 * rng.unit(), 0.01);
  return as_document(xr::core::offload_search_request(
      base_scenario(draw_base(seed)), space, alpha));
}

xr::runtime::SweepRequest gt_request(std::uint64_t seed, std::size_t frames) {
  SplitMix rng = stream(seed, 3);
  xr::runtime::SweepRequest request;
  request.grid =
      xr::runtime::SweepSpec(base_scenario(draw_base(seed)))
          .placements({xr::core::InferencePlacement::kLocal,
                       xr::core::InferencePlacement::kRemote})
          .frame_sizes(stratified(rng, 8, 300, 700, 1))
          .cpu_clocks_ghz(stratified(rng, 8, 1, 3, 0.01))
          .grid_spec();
  request.evaluator.kind = xr::runtime::shard::EvaluatorKind::kGroundTruth;
  request.evaluator.seed = rng.next();
  request.evaluator.frames_per_point = frames;
  return as_document(request);
}

xr::runtime::SweepRequest as_document(
    const xr::runtime::SweepRequest& request) {
  return xr::runtime::SweepRequest::from_json(
      xr::core::Json::parse(request.to_json().dump()));
}

}  // namespace perfbench
