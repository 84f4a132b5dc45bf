#include "reference.h"

#include <cmath>

namespace e2e {

namespace {
constexpr int kN = 32;
}

double referenceKernel(std::uint64_t salt, int reps) {
  double a[kN][kN];
  double b[kN];
  int piv[kN];
  double checksum = 0.0;
  const double eps = static_cast<double>(salt % 1024) * 1e-6;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j)
        a[i][j] = 1.0 / (1.0 + std::abs(i - j) + eps * (i + j));
      a[i][i] += (r & 1) ? 2.0 : 3.0;
      b[i] = std::exp(-0.05 * i + eps);
    }
    // LU with partial pivoting, in place.
    for (int k = 0; k < kN; ++k) {
      int p = k;
      for (int i = k + 1; i < kN; ++i)
        if (std::abs(a[i][k]) > std::abs(a[p][k])) p = i;
      piv[k] = p;
      if (p != k)
        for (int j = 0; j < kN; ++j) {
          const double t = a[k][j];
          a[k][j] = a[p][j];
          a[p][j] = t;
        }
      const double inv = 1.0 / a[k][k];
      for (int i = k + 1; i < kN; ++i) {
        const double l = a[i][k] * inv;
        a[i][k] = l;
        for (int j = k + 1; j < kN; ++j) a[i][j] -= l * a[k][j];
      }
    }
    // Forward/back substitution.
    for (int k = 0; k < kN; ++k) {
      const double t = b[k];
      b[k] = b[piv[k]];
      b[piv[k]] = t;
      for (int i = k + 1; i < kN; ++i) b[i] -= a[i][k] * b[k];
    }
    for (int i = kN - 1; i >= 0; --i) {
      double s = b[i];
      for (int j = i + 1; j < kN; ++j) s -= a[i][j] * b[j];
      b[i] = s / a[i][i];
    }
    for (int i = 0; i < kN; ++i) checksum += std::exp(b[i]);
  }
  return checksum;
}

}  // namespace e2e
