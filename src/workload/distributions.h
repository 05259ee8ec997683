// Flow-size distributions.
//
// Besides the paper's uniform ranges, the library ships the two empirical
// distributions every data-center transport paper evaluates against
// (web search and data mining, from the DCTCP/pFabric measurement studies),
// as piecewise-linear interpolations of their published CDFs. Both are
// heavy-tailed: most flows are tiny, most *bytes* live in elephants.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace pase::workload {

// Inverse-CDF sampler over a piecewise-linear CDF given as
// (size_bytes, cumulative_probability) points with increasing probability.
class PiecewiseCdf {
 public:
  explicit PiecewiseCdf(std::vector<std::pair<double, double>> points)
      : points_(std::move(points)) {
    if (points_.size() < 2) {
      throw std::invalid_argument(
          "piecewise CDF needs at least 2 points, got " +
          std::to_string(points_.size()));
    }
    if (points_.front().second != 0.0 || points_.back().second != 1.0) {
      throw std::invalid_argument(
          "piecewise CDF must run from probability 0 to 1, got " +
          std::to_string(points_.front().second) + " to " +
          std::to_string(points_.back().second));
    }
  }

  double sample(sim::Rng& rng) const {
    const double u = rng();
    for (std::size_t i = 1; i < points_.size(); ++i) {
      if (u <= points_[i].second) {
        const auto& [x0, p0] = points_[i - 1];
        const auto& [x1, p1] = points_[i];
        const double frac = p1 == p0 ? 0.0 : (u - p0) / (p1 - p0);
        return x0 + frac * (x1 - x0);
      }
    }
    return points_.back().first;
  }

  double mean() const {
    // Mean of the piecewise-linear interpolation: sum of trapezoids.
    double m = 0.0;
    for (std::size_t i = 1; i < points_.size(); ++i) {
      const auto& [x0, p0] = points_[i - 1];
      const auto& [x1, p1] = points_[i];
      m += (p1 - p0) * (x0 + x1) / 2.0;
    }
    return m;
  }

  const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<double, double>> points_;
};

// Web-search workload (DCTCP measurement study): mean ~1.6 MB, >95% of
// bytes from flows > 1 MB.
inline const PiecewiseCdf& web_search_cdf() {
  static const PiecewiseCdf cdf({{6e3, 0.0},
                                 {6e3, 0.15},
                                 {13e3, 0.2},
                                 {19e3, 0.3},
                                 {33e3, 0.4},
                                 {53e3, 0.53},
                                 {133e3, 0.6},
                                 {667e3, 0.7},
                                 {1333e3, 0.8},
                                 {3333e3, 0.9},
                                 {6667e3, 0.97},
                                 {20e6, 1.0}});
  return cdf;
}

// Data-mining workload (VL2 measurement study): even heavier tail; ~80% of
// flows under 10 KB but elephants reach 1 GB (clamped to 100 MB here to keep
// single experiments bounded).
inline const PiecewiseCdf& data_mining_cdf() {
  static const PiecewiseCdf cdf({{1e3, 0.0},
                                 {1e3, 0.5},
                                 {2e3, 0.6},
                                 {3e3, 0.7},
                                 {7e3, 0.8},
                                 {267e3, 0.9},
                                 {2107e3, 0.95},
                                 {66667e3, 0.99},
                                 {100e6, 1.0}});
  return cdf;
}

}  // namespace pase::workload
