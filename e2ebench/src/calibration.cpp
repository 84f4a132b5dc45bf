#include "calibration.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "reference.h"

namespace e2e {

namespace {
// ~1 ms on an unloaded vCPU of the reference host; fixed, so every slice
// does the same work.
constexpr int kSliceReps = 160;
volatile double g_sink = 0.0;
}  // namespace

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Calibrator::slice() {
  const std::int64_t start = nowNs();
  g_sink = g_sink + referenceKernel(starts_.size(), kSliceReps);
  const std::int64_t end = nowNs();
  starts_.push_back(start);
  ends_.push_back(end);
  lastSliceEndNs_ = end;
  sliceNs_ += end - start;
  // Slices go into the trace too: the trace analysis aligns its clock on them.
  crl::obs::TraceSink::global().record("calib.slice", "e2e", start, end);
}

double Calibrator::calibrated(std::int64_t a, std::int64_t b) const {
  // Gap i is the work between slice i and slice i + 1.
  double total = 0.0;
  const auto first = std::upper_bound(ends_.begin(), ends_.end(), a);
  std::size_t i = first == ends_.begin() ? 0 : static_cast<std::size_t>(first - ends_.begin()) - 1;
  for (; i + 1 < starts_.size() && ends_[i] < b; ++i) {
    const std::int64_t lo = std::max(a, ends_[i]);
    const std::int64_t hi = std::min(b, starts_[i + 1]);
    if (hi <= lo) continue;
    const double ref = 0.5e-9 * static_cast<double>((ends_[i] - starts_[i]) +
                                                    (ends_[i + 1] - starts_[i + 1]));
    total += 1e-9 * static_cast<double>(hi - lo) * (kNominalSliceSeconds / ref);
  }
  return total;
}

double Calibrator::raw(std::int64_t a, std::int64_t b) const {
  double total = 1e-9 * static_cast<double>(b - a);
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    const std::int64_t lo = std::max(a, starts_[i]);
    const std::int64_t hi = std::min(b, ends_[i]);
    if (hi > lo) total -= 1e-9 * static_cast<double>(hi - lo);
  }
  return total;
}

double Calibrator::meanSliceSeconds(std::int64_t a, std::int64_t b) const {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < starts_.size(); ++i)
    if (starts_[i] >= a && starts_[i] <= b) {
      sum += 1e-9 * static_cast<double>(ends_[i] - starts_[i]);
      ++n;
    }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace e2e
