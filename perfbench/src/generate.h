// Seeded workload inputs. A seed draws the base scenario inside the
// paper's operating ranges and the values of the ω_c / bitrate / frame
// size / clock axes; the grid SHAPES are fixed per workload, so every
// seed sweeps the same number of points. The library only ever sees the
// generated request documents (each request is round-tripped through its
// JSON form before use).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "runtime/sweep_request.h"

namespace perfbench {

/// The seed's base scenario draw (shared by every workload of a seed).
struct BaseDraw {
  double frame_size = 500;       ///< s_f1, 300–700.
  double cpu_ghz = 2;            ///< f_c, 1–3 GHz.
  double throughput_mbps = 40;   ///< r_w, 20–80 Mbps.

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] BaseDraw draw_base(std::uint64_t seed);

/// An analytical offload search (ω_c × local CNN × edge CNN × edge count
/// × bitrate × placement) over the seed's base scenario, with
/// `omega_points` ω_c values and `bitrate_points` bitrates drawn from the
/// seed: 288 · omega_points · bitrate_points grid points.
[[nodiscard]] xr::runtime::SweepRequest offload_request(
    std::uint64_t seed, std::size_t omega_points, std::size_t bitrate_points);

/// The ground-truth placement decision-boundary grid: 2 placements × 8
/// frame sizes × 8 CPU clocks, `frames` simulated frames per point, the
/// evaluator seed and axis values drawn from the seed.
[[nodiscard]] xr::runtime::SweepRequest gt_request(std::uint64_t seed,
                                                   std::size_t frames);

/// Round-trip a request through its document form, as a worker process
/// receiving it would.
[[nodiscard]] xr::runtime::SweepRequest as_document(
    const xr::runtime::SweepRequest& request);

}  // namespace perfbench
