// SIMD/scalar equivalence for the runtime-dispatched per-sample
// kernels (dsp/simd.hpp). Every kernel is specified to be
// bit-identical between the scalar reference and the AVX2 variant, at
// every length (vector body + tails) and input alignment — that is
// what keeps Monte-Carlo results a pure function of (config, seed)
// across machines. These tests force the dispatch both ways and
// compare exactly.
#include "dsp/simd.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace saiyan::dsp {
namespace {

/// Lengths covering the empty case, every tail residue, and
/// vector-dominated sizes (1024, 1536).
std::vector<std::size_t> test_lengths() {
  std::vector<std::size_t> n;
  for (std::size_t i = 0; i <= 17; ++i) n.push_back(i);
  n.push_back(1024);
  n.push_back(1536);
  return n;
}

/// Misalignment offsets (in doubles) applied to every buffer: the
/// kernels use unaligned loads, so results must not depend on the
/// allocation's 32-byte phase.
constexpr std::size_t kOffsets[] = {0, 1, 2, 3};

struct IsaGuard {
  ~IsaGuard() { simd::set_isa(simd::Isa::kAuto); }
};

bool have_avx2() { return simd::cpu_has_avx2_fma(); }

/// memcmp that accepts a zero length: an empty vector's data() may be
/// null, and memcmp's pointers must be valid even when nothing is read.
int bytes_cmp(const void* a, const void* b, std::size_t n) {
  return n == 0 ? 0 : std::memcmp(a, b, n);
}

RealSignal random_reals(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealSignal out(n);
  for (double& v : out) v = rng.gaussian();
  return out;
}

Signal random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Signal out(n);
  for (Complex& v : out) v = Complex(rng.gaussian(), rng.gaussian());
  return out;
}

/// Run `fn(x_ptr, y_ptr, out_ptr, n)` under scalar and AVX2 dispatch
/// on offset copies of the inputs and require bitwise-equal outputs.
template <typename Fn>
void expect_dispatch_identical(std::size_t n, std::size_t off, Fn&& fn) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const RealSignal a = random_reals(n + off, 11 * n + off + 1);
  const RealSignal b = random_reals(n + off, 13 * n + off + 2);
  RealSignal out_scalar(n + off, 0.0);
  RealSignal out_avx2(n + off, 0.0);
  simd::set_isa(simd::Isa::kScalar);
  fn(a.data() + off, b.data() + off, out_scalar.data() + off, n);
  simd::set_isa(simd::Isa::kAvx2);
  fn(a.data() + off, b.data() + off, out_avx2.data() + off, n);
  ASSERT_EQ(0, bytes_cmp(out_scalar.data(), out_avx2.data(),
                         out_scalar.size() * sizeof(double)))
      << "n=" << n << " off=" << off;
}

TEST(SimdDispatch, ActiveIsaFollowsOverride) {
  IsaGuard guard;
  simd::set_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  simd::set_isa(simd::Isa::kAuto);
  if (have_avx2()) {
    EXPECT_EQ(simd::active_isa(), simd::Isa::kAvx2);
    simd::set_isa(simd::Isa::kAvx2);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kAvx2);
  } else {
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  }
}

TEST(SimdKernels, SquareLawBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const Signal x = random_complex(n + off, 3 * n + off + 1);
      RealSignal ys(n, 0.0), yv(n, 0.0);
      simd::set_isa(simd::Isa::kScalar);
      simd::square_law(x.data() + off, n, 0.37, ys.data());
      simd::set_isa(simd::Isa::kAvx2);
      simd::square_law(x.data() + off, n, 0.37, yv.data());
      ASSERT_EQ(0, bytes_cmp(ys.data(), yv.data(), n * sizeof(double)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernels, SquareLawMixedBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const Signal x = random_complex(n + off, 5 * n + off + 1);
      const RealSignal g = random_reals(n + off, 7 * n + off + 2);
      RealSignal ys(n, 0.0), yv(n, 0.0);
      simd::set_isa(simd::Isa::kScalar);
      simd::square_law_mixed(x.data() + off, g.data() + off, n, 1.7, ys.data());
      simd::set_isa(simd::Isa::kAvx2);
      simd::square_law_mixed(x.data() + off, g.data() + off, n, 1.7, yv.data());
      ASSERT_EQ(0, bytes_cmp(ys.data(), yv.data(), n * sizeof(double)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernels, ScaleBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      expect_dispatch_identical(n, off,
                                [](const double* x, const double*, double* out,
                                   std::size_t m) { simd::scale(x, m, 0.81, out); });
    }
  }
}

/// The fused draw+inject kernels: run under scalar and AVX2 dispatch
/// with identically-seeded Rngs; outputs AND final engine states must
/// match bitwise (the draw stream is part of the contract).
template <typename Fn>
void expect_fused_identical(std::size_t n, std::size_t off, Fn&& fn) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const RealSignal x = random_reals(n + off, 17 * n + off + 1);
  RealSignal out_scalar = random_reals(n + off, 19 * n + off + 2);
  RealSignal out_avx2 = out_scalar;
  Rng rng_s(1000 + n * 4 + off);
  Rng rng_v(1000 + n * 4 + off);
  simd::set_isa(simd::Isa::kScalar);
  fn(x.data() + off, out_scalar.data() + off, n, rng_s);
  simd::set_isa(simd::Isa::kAvx2);
  fn(x.data() + off, out_avx2.data() + off, n, rng_v);
  ASSERT_EQ(0, bytes_cmp(out_scalar.data(), out_avx2.data(),
                         out_scalar.size() * sizeof(double)))
      << "n=" << n << " off=" << off;
  ASSERT_EQ(rng_s.engine()(), rng_v.engine()()) << "n=" << n << " off=" << off;
}

TEST(SimdKernels, ScaleAddGaussianBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      expect_fused_identical(n, off, [](const double* x, double* out,
                                        std::size_t m, Rng& rng) {
        simd::scale_add_gaussian(x, m, 1.3e-4, 2.7e-8, out, rng);
      });
    }
  }
}

TEST(SimdKernels, GainAddGaussianBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      expect_fused_identical(n, off, [](const double* x, double* out,
                                        std::size_t m, Rng& rng) {
        simd::gain_add_gaussian(x, m, 10.0, 3.3e-9, out, rng);
      });
    }
  }
}

TEST(SimdKernels, AddDcFlickerGaussianBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      expect_fused_identical(n, off, [](const double* flicker, double* y,
                                        std::size_t m, Rng& rng) {
        simd::add_dc_flicker_gaussian(y, flicker, m, 1e-6, 3e-7, rng);
      });
    }
  }
}

TEST(SimdKernels, LnaSquareLawBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const Signal x = random_complex(n + off, 23 * n + off + 1);
      const RealSignal gm = random_reals(n + off, 29 * n + off + 2);
      for (bool mixed : {false, true}) {
        RealSignal ys(n, 0.0), yv(n, 0.0);
        Rng rs(500 + n * 8 + off + mixed), rv(500 + n * 8 + off + mixed);
        simd::set_isa(simd::Isa::kScalar);
        simd::lna_square_law(x.data() + off, mixed ? gm.data() + off : nullptr,
                             n, 10.0, 3e-9, 0.8, ys.data(), rs);
        simd::set_isa(simd::Isa::kAvx2);
        simd::lna_square_law(x.data() + off, mixed ? gm.data() + off : nullptr,
                             n, 10.0, 3e-9, 0.8, yv.data(), rv);
        ASSERT_EQ(0, bytes_cmp(ys.data(), yv.data(), n * sizeof(double)))
            << "n=" << n << " off=" << off << " mixed=" << mixed;
        ASSERT_EQ(rs.engine()(), rv.engine()());
      }
    }
  }
}

TEST(SimdKernels, LnaSquareLawMatchesTwoPassChain) {
  // The fused kernel must reproduce amplify-then-square-law exactly —
  // it replaced that sequence in the receive chain.
  IsaGuard guard;
  const std::size_t n = 2049;
  const Signal x = random_complex(n, 31);
  const RealSignal gm = random_reals(n, 37);
  const double g = 10.0, sigma = 4e-9, k = 0.8;
  Rng r1(3), r2(3);
  RealSignal want(n), got(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double nr = sigma * r1.gaussian();
    const double ni = sigma * r1.gaussian();
    const double re = g * (x[i].real() + nr);
    const double im = g * (x[i].imag() + ni);
    const double g2 = gm[i] * gm[i];
    want[i] = k * g2 * (re * re + im * im);
  }
  simd::lna_square_law(x.data(), gm.data(), n, g, sigma, k, got.data(), r2);
  EXPECT_EQ(0, bytes_cmp(want.data(), got.data(), n * sizeof(double)));
  EXPECT_EQ(r1.engine()(), r2.engine()());
}

TEST(SimdKernels, DotBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const RealSignal x = random_reals(n + off, 43 * n + off + 1);
      const RealSignal y = random_reals(n + off, 47 * n + off + 2);
      simd::set_isa(simd::Isa::kScalar);
      const double a = simd::dot(x.data() + off, y.data() + off, n);
      simd::set_isa(simd::Isa::kAvx2);
      const double b = simd::dot(x.data() + off, y.data() + off, n);
      ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(double))) << "n=" << n;
    }
  }
}

TEST(SimdKernels, CdotBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const Signal x = random_complex(n + off, 53 * n + off + 1);
      const Signal y = random_complex(n + off, 59 * n + off + 2);
      simd::set_isa(simd::Isa::kScalar);
      const Complex a = simd::cdot(x.data() + off, y.data() + off, n);
      simd::set_isa(simd::Isa::kAvx2);
      const Complex b = simd::cdot(x.data() + off, y.data() + off, n);
      ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(Complex))) << "n=" << n;
    }
  }
}

TEST(SimdKernels, CdotMatchesNaiveSum) {
  // Value sanity (up to reassociation rounding): Σ x·conj(y).
  const std::size_t n = 513;
  const Signal x = random_complex(n, 3);
  const Signal y = random_complex(n, 4);
  Complex want{};
  for (std::size_t i = 0; i < n; ++i) want += x[i] * std::conj(y[i]);
  const Complex got = simd::cdot(x.data(), y.data(), n);
  EXPECT_NEAR(got.real(), want.real(), 1e-9 * n);
  EXPECT_NEAR(got.imag(), want.imag(), 1e-9 * n);
}

TEST(SimdKernels, ComplexScaledSubtractBitIdentical) {
  IsaGuard guard;
  const Complex a(0.8, -0.31);
  const Complex b(1e-4, -2e-5);
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const Signal x = random_complex(n + off, 61 * n + off + 1);
      Signal y0 = random_complex(n + off, 67 * n + off + 2);
      Signal y1 = y0;
      simd::set_isa(simd::Isa::kScalar);
      simd::complex_scaled_subtract(x.data() + off, n, a, b, y0.data() + off);
      simd::set_isa(simd::Isa::kAvx2);
      simd::complex_scaled_subtract(x.data() + off, n, a, b, y1.data() + off);
      ASSERT_EQ(0, bytes_cmp(y0.data(), y1.data(),
                             y0.size() * sizeof(Complex)))
          << "n=" << n;
    }
  }
}

TEST(SimdKernels, ComplexScaledSubtractRemovesScaledCopy) {
  // y = a·x + b exactly cancels: the SIC identity case.
  const std::size_t n = 257;
  const Complex a(0.5, 0.25);
  const Complex b(0.01, -0.02);
  const Signal x = random_complex(n, 7);
  Signal y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i] + b;
  simd::complex_scaled_subtract(x.data(), n, a, b, y.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(y[i]), 1e-12) << "i=" << i;
  }
}

TEST(SimdKernels, FusedKernelsMatchPerSampleDraws) {
  // The fused kernels must reproduce the historical per-sample loops
  // exactly (values and stream) — they replaced them in the channel,
  // LNA and envelope-detector hot paths.
  IsaGuard guard;
  const std::size_t n = 4097;
  const RealSignal x = random_reals(n, 5);
  RealSignal want(n), got(n);

  Rng r1(9), r2(9);
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = 0.25 * x[i] + 1e-7 * r1.gaussian();
  }
  simd::scale_add_gaussian(x.data(), n, 0.25, 1e-7, got.data(), r2);
  EXPECT_EQ(0, bytes_cmp(want.data(), got.data(), n * sizeof(double)));
  EXPECT_EQ(r1.engine()(), r2.engine()());

  Rng r3(11), r4(11);
  for (std::size_t i = 0; i < n; ++i) {
    const double nr = 2e-8 * r3.gaussian();
    want[i] = 10.0 * (x[i] + nr);
  }
  simd::gain_add_gaussian(x.data(), n, 10.0, 2e-8, got.data(), r4);
  EXPECT_EQ(0, bytes_cmp(want.data(), got.data(), n * sizeof(double)));
  EXPECT_EQ(r3.engine()(), r4.engine()());
}

TEST(SimdKernels, MultiplyBitIdenticalIncludingInPlace) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      expect_dispatch_identical(n, off,
                                [](const double* x, const double* y, double* out,
                                   std::size_t m) { simd::multiply(x, y, m, out); });
    }
  }
  // In-place (out == x), as the CFS output mixer uses it.
  if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const RealSignal lo = random_reals(1536, 21);
  RealSignal xs = random_reals(1536, 22);
  RealSignal xv = xs;
  simd::set_isa(simd::Isa::kScalar);
  simd::multiply(xs.data(), lo.data(), xs.size(), xs.data());
  simd::set_isa(simd::Isa::kAvx2);
  simd::multiply(xv.data(), lo.data(), xv.size(), xv.data());
  EXPECT_EQ(0, bytes_cmp(xs.data(), xv.data(), xs.size() * sizeof(double)));
}

TEST(SimdKernels, ComplexScaleTableBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const RealSignal g = random_reals(n + off, 9 * n + off + 3);
      Signal xs = random_complex(n + off, 10 * n + off + 4);
      Signal xv = xs;
      simd::set_isa(simd::Isa::kScalar);
      simd::complex_scale_table(xs.data() + off, g.data() + off, n);
      simd::set_isa(simd::Isa::kAvx2);
      simd::complex_scale_table(xv.data() + off, g.data() + off, n);
      ASSERT_EQ(0, bytes_cmp(xs.data(), xv.data(), xs.size() * sizeof(Complex)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernels, ReductionsBitIdentical) {
  IsaGuard guard;
  for (std::size_t n : test_lengths()) {
    for (std::size_t off : kOffsets) {
      if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
      const RealSignal x = random_reals(n + off, 51 * n + off + 1);
      simd::set_isa(simd::Isa::kScalar);
      const double ss = simd::sum(x.data() + off, n);
      const double qs = simd::sum_squares(x.data() + off, n);
      simd::set_isa(simd::Isa::kAvx2);
      const double sv = simd::sum(x.data() + off, n);
      const double qv = simd::sum_squares(x.data() + off, n);
      // Bitwise: the scalar reference uses the vector version's exact
      // 4-accumulator association.
      ASSERT_EQ(0, std::memcmp(&ss, &sv, sizeof(double))) << "n=" << n;
      ASSERT_EQ(0, std::memcmp(&qs, &qv, sizeof(double))) << "n=" << n;
    }
  }
}

TEST(SimdKernels, ComplexSumSquaresMatchesInterleavedDoubles) {
  IsaGuard guard;
  const Signal x = random_complex(1536, 61);
  const double a = simd::sum_squares(x.data(), x.size());
  const double b =
      simd::sum_squares(reinterpret_cast<const double*>(x.data()), 2 * x.size());
  EXPECT_EQ(a, b);
}

TEST(SimdFillGaussian, MatchesRepeatedScalarDraws) {
  IsaGuard guard;
  // The batch fill must consume the engine exactly like n repeated
  // gaussian() calls — including across rejection/tail paths — so a
  // workspace path and a legacy path seeded identically stay
  // bit-identical. 100k draws hit the wedge and tail branches.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{5}, std::size_t{1024}, std::size_t{100000}}) {
    Rng seq(42 + n);
    std::vector<double> want(n);
    for (double& v : want) v = seq.gaussian();

    Rng batch(42 + n);
    std::vector<double> got(n, 0.0);
    simd::fill_gaussian(batch, got.data(), n);
    ASSERT_EQ(0, bytes_cmp(want.data(), got.data(), n * sizeof(double)))
        << "n=" << n;
    // The engines must also end in the same state.
    EXPECT_EQ(seq.engine()(), batch.engine()());
  }
}

TEST(SimdFillGaussian, ScalarAndAvx2StreamsIdentical) {
  IsaGuard guard;
  if (!have_avx2()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const std::size_t n = 100000;
  Rng ra(7), rb(7);
  std::vector<double> a(n, 0.0), b(n, 0.0);
  simd::set_isa(simd::Isa::kScalar);
  simd::fill_gaussian(ra, a.data(), n);
  simd::set_isa(simd::Isa::kAvx2);
  simd::fill_gaussian(rb, b.data(), n);
  EXPECT_EQ(0, bytes_cmp(a.data(), b.data(), n * sizeof(double)));
  EXPECT_EQ(ra.engine()(), rb.engine()());
}

}  // namespace
}  // namespace saiyan::dsp
