// Deterministic random number generation for workloads.
//
// A thin wrapper over std::mt19937_64 so every experiment is reproducible
// from a seed printed in its output.
#pragma once

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>

namespace pase::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : gen_(seed) {}

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  // Exponential with the given mean (> 0). Used for Poisson inter-arrivals.
  double exponential(double mean) {
    if (!(mean > 0.0)) {
      throw std::invalid_argument("exponential mean must be > 0, got " +
                                  std::to_string(mean));
    }
    return std::exponential_distribution<double>(1.0 / mean)(gen_);
  }

  double operator()() { return uniform(0.0, 1.0); }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace pase::sim
