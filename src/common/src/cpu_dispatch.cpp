#include "klinq/common/cpu_dispatch.hpp"

#include "klinq/common/env.hpp"

namespace klinq {

bool cpu_supports_avx2() noexcept {
#if KLINQ_HAVE_X86_SIMD
#if defined(__AVX2__)
  // The whole build already assumes AVX2 (-march=...); no cpuid needed.
  return true;
#else
  return __builtin_cpu_supports("avx2") != 0;
#endif
#else
  return false;
#endif
}

bool cpu_supports_avx512() noexcept {
#if KLINQ_HAVE_X86_SIMD
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__)
  // The whole build already assumes the AVX-512 baseline; no cpuid needed.
  return true;
#else
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#endif
#else
  return false;
#endif
}

namespace {

simd_tier resolve_tier() {
  const std::string preference = env_string("KLINQ_SIMD", "auto");
  if (preference == "scalar" || preference == "scalar64") {
    return simd_tier::scalar64;
  }
  if (preference == "avx2") {
    // An explicit avx2 pin caps dispatch there: it never silently upgrades
    // to AVX-512, so A/B runs measure exactly the tier they asked for.
    return cpu_supports_avx2() ? simd_tier::avx2 : simd_tier::scalar64;
  }
  // "avx512" and "auto" both defer to the runtime checks: pick the widest
  // tier the host executes and fall back avx512 → avx2 → scalar instead of
  // faulting on the first kernel.
  if (cpu_supports_avx512()) return simd_tier::avx512;
  return cpu_supports_avx2() ? simd_tier::avx2 : simd_tier::scalar64;
}

}  // namespace

simd_tier active_simd_tier() noexcept {
  static const simd_tier tier = resolve_tier();
  return tier;
}

simd_tier active_float_simd_tier() noexcept { return active_simd_tier(); }

bool fused_float_path_enabled() noexcept { return true; }

const char* simd_tier_name(simd_tier tier) noexcept {
  switch (tier) {
    case simd_tier::avx512:
      return "avx512";
    case simd_tier::avx2:
      return "avx2";
    case simd_tier::scalar64:
      break;
  }
  return "scalar64";
}

}  // namespace klinq
