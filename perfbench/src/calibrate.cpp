#include "calibrate.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "layers.hpp"

namespace perfbench {

namespace {

constexpr int kSide = 24;
constexpr int kRobots = 24;
constexpr int kRounds = 16;
constexpr int kStepsPerRound = 2500;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

/// Robots wander a small torus.  Each step hashes every robot's 3x3
/// neighbourhood to pick its move and colour, and records the configuration
/// in a hash set, which starts empty every round.  Returns a checksum.
std::uint64_t reference_kernel() {
  std::array<std::uint8_t, kSide * kSide> cells{};
  std::array<int, kRobots> pos{};
  std::array<std::uint8_t, kRobots> color{};
  std::uint64_t state = 0x1234567ULL;
  for (std::size_t r = 0; r < kRobots; ++r) {
    pos[r] = static_cast<int>(splitmix64(state) % (kSide * kSide));
    color[r] = static_cast<std::uint8_t>(r % 3);
    ++cells[static_cast<std::size_t>(pos[r])];
  }
  std::uint64_t sum = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::unordered_set<std::uint64_t> seen;
    for (int step = 0; step < kStepsPerRound; ++step) {
      std::uint64_t config = 0;
      for (std::size_t r = 0; r < kRobots; ++r) {
        const int x = pos[r] % kSide, y = pos[r] / kSide;
        std::uint64_t view = color[r];
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx)
            view = view * 7 + cells[static_cast<std::size_t>(((y + dy + kSide) % kSide) * kSide +
                                                             (x + dx + kSide) % kSide)];
        const std::uint64_t h = mix(view + static_cast<std::uint64_t>(step & 15));
        int nx = x, ny = y;
        switch (h % 5) {
          case 0: nx = (x + 1) % kSide; break;
          case 1: nx = (x + kSide - 1) % kSide; break;
          case 2: ny = (y + 1) % kSide; break;
          case 3: ny = (y + kSide - 1) % kSide; break;
          default: break;
        }
        --cells[static_cast<std::size_t>(pos[r])];
        pos[r] = ny * kSide + nx;
        ++cells[static_cast<std::size_t>(pos[r])];
        color[r] = static_cast<std::uint8_t>((h >> 8) % 3);
        config = mix(config ^ (static_cast<std::uint64_t>(pos[r]) << 2 | color[r]));
      }
      if (seen.insert(config).second) sum += config & 0xFF;
    }
    sum += seen.size();
  }
  return sum;
}

}  // namespace

double reference_seconds() {
  static const std::uint64_t expected = reference_kernel();
  const double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const std::uint64_t sum = reference_kernel();
  const double t = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - t0;
  gate(sum == expected, "the reference kernel is not deterministic");
  return t;
}

TimedLegs::TimedLegs()
    : wall_(kSlices), cpu_(kSlices), nominal_cpu_(kSlices) {
  kernel_.push_back(reference_seconds());
}

double TimedLegs::bracket() {
  kernel_.push_back(reference_seconds());
  return (kernel_[kernel_.size() - 2] + kernel_.back()) / 2.0;
}

void TimedLegs::add_parallel(double wall) {
  bracket();
  parallel_wall_.push_back(wall);
  parallel_at_.push_back(slice_walls_.size());
}

void TimedLegs::add_slice(std::size_t k, double wall, double cpu) {
  const double around = bracket();
  slice_walls_.push_back(wall);
  wall_[k].push_back(wall);
  cpu_[k].push_back(cpu);
  nominal_cpu_[k].push_back(cpu * kReferenceNominalSeconds / around);
}

namespace {

double sum_of_medians(const std::vector<std::vector<double>>& per_slice) {
  double total = 0.0;
  for (const std::vector<double>& v : per_slice) total += median(v);
  return total;
}

}  // namespace

double TimedLegs::one_thread_nominal() const { return sum_of_medians(nominal_cpu_); }

double TimedLegs::parallel_efficiency(unsigned threads) const {
  // Slices run in order 0, 1, ..., kSlices - 1, 0, ..., so any kSlices
  // consecutive slice passes cover the whole input once.
  std::vector<double> ratios;
  for (std::size_t i = 0; i < parallel_wall_.size(); ++i) {
    if (slice_walls_.size() < kSlices) break;
    const std::size_t first = std::min(parallel_at_[i] - std::min(parallel_at_[i], kSlices / 2),
                                       slice_walls_.size() - kSlices);
    double one_thread = 0.0;
    for (std::size_t j = first; j < first + kSlices; ++j) one_thread += slice_walls_[j];
    ratios.push_back(one_thread / (threads * parallel_wall_[i]));
  }
  return median(ratios);
}

double TimedLegs::nominal_per_cpu_second() const {
  return kReferenceNominalSeconds / median(kernel_);
}

void TimedLegs::print(unsigned threads) const {
  print_samples("nproc wall seconds", parallel_wall_);
  for (std::size_t k = 0; k < kSlices; ++k) {
    const std::string what = "one-thread slice " + std::to_string(k);
    print_samples((what + " wall seconds").c_str(), wall_[k]);
    print_samples((what + " CPU seconds").c_str(), cpu_[k]);
    print_samples((what + " nominal CPU seconds").c_str(), nominal_cpu_[k]);
  }
  print_samples("reference kernel CPU seconds", kernel_);
  std::printf("one-thread pass: %.6f wall s, %.6f CPU s, %.6f nominal s\n",
              sum_of_medians(wall_), sum_of_medians(cpu_), one_thread_nominal());
  std::printf("parallel efficiency at %u threads: %.6f paired, %.6f from medians\n", threads,
              parallel_efficiency(threads),
              sum_of_medians(wall_) / (threads * median(parallel_wall_)));
}

}  // namespace perfbench
