// The kernel tables a tier-parity test runs, shared by the fixed-point and
// float kernel suites: kernels_for(t) for every SIMD tier this build and CPU
// can run, plus the check that kernels_for and active_kernels agree with
// the dispatcher.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "klinq/common/cpu_dispatch.hpp"

namespace klinq::test {

template <class Table>
struct tier_table {
  const char* name;
  const Table* kernels;
};

/// kernels_for(t) for t in {scalar64, avx2, avx512}, null tables skipped.
template <class Table>
std::vector<tier_table<Table>> host_tables(
    const Table* (*kernels_for)(simd_tier) noexcept) {
  std::vector<tier_table<Table>> tables;
  for (const simd_tier tier :
       {simd_tier::scalar64, simd_tier::avx2, simd_tier::avx512}) {
    if (const Table* kernels = kernels_for(tier)) {
      tables.push_back({simd_tier_name(tier), kernels});
    }
  }
  return tables;
}

/// scalar64 always has a table, a SIMD tier has one exactly when the CPU
/// runs it, and active_kernels() is the table of active_simd_tier() — so
/// the KLINQ_SIMD override reaches the family.
template <class Table>
void expect_kernel_tables(const Table* (*kernels_for)(simd_tier) noexcept,
                          const Table& active) {
  EXPECT_NE(kernels_for(simd_tier::scalar64), nullptr);
  EXPECT_EQ(kernels_for(simd_tier::avx2) != nullptr, cpu_supports_avx2());
  EXPECT_EQ(kernels_for(simd_tier::avx512) != nullptr, cpu_supports_avx512());
  EXPECT_EQ(&active, kernels_for(active_simd_tier()));
}

}  // namespace klinq::test
