#pragma once
// Same-thread speed calibration. The host's per-vCPU speed drifts by up to
// 1.5x between identical runs; a fixed reference computation interleaved on
// the same thread drifts with it. The calibrator runs a reference slice at
// hook points once at least 0.1 s has passed since the last one, and
// scales each stretch of work between two slices by nominal / measured
// reference time (the mean of the two bounding slices).
// Reference time itself is never counted as work.

#include <cstdint>
#include <vector>

namespace e2e {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t nowNs();

class Calibrator {
 public:
  /// Nominal duration of one reference slice: the typical slice on the
  /// host the README's figures come from, so calibrated ~ raw seconds there.
  static constexpr double kNominalSliceSeconds = 1.0e-3;
  /// Work between slices: 0.1 s tracked the drift; ~3 s did not (README.md).
  static constexpr std::int64_t kSliceEveryNs = 100'000'000;

  /// Hook point: runs a slice when enough work has passed since the last.
  void tick() {
    if (nowNs() - lastSliceEndNs_ >= kSliceEveryNs) slice();
  }
  /// Runs one reference slice now.
  void slice();

  /// Calibrated seconds of program work inside the raw window [a, b] (ns).
  /// Only work between the first and the last slice is covered, so take a
  /// slice before a window opens and after it closes.
  double calibrated(std::int64_t a, std::int64_t b) const;
  /// Raw seconds of program work inside [a, b]: the window minus slices.
  double raw(std::int64_t a, std::int64_t b) const;

  std::size_t slices() const { return starts_.size(); }
  std::int64_t sliceStartNs(std::size_t i) const { return starts_.at(i); }
  /// Total time spent in reference slices so far (ns).
  std::int64_t sliceNs() const { return sliceNs_; }
  /// Mean measured slice duration over slices whose start lies in [a, b].
  double meanSliceSeconds(std::int64_t a, std::int64_t b) const;

 private:
  std::int64_t lastSliceEndNs_ = 0;
  std::int64_t sliceNs_ = 0;
  std::vector<std::int64_t> starts_, ends_;
};

}  // namespace e2e
