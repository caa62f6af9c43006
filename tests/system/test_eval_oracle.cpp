// Differential oracle for the per-user evaluation (core::evaluate_users,
// what MulticastSession::step_into scores users with): every score must
// equal, bit for bit, the naive per-user reference — a full three-plane
// reconstruct_from_units followed by quality::ssim and quality::psnr —
// whatever the shared pool size.
#include "core/frame_context.h"

#include "common/rng.h"
#include "common/thread_pool.h"
#include "quality/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace w4k::core {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;

class EvalOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 1;
    spec.richness = video::Richness::kHigh;
    spec.seed = 21;
    ctx_ = new FrameContext(make_frame_context(
        video::SyntheticVideo(spec).frame(0), nullptr,
        scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }
  void TearDown() override { ThreadPool::reset_shared(0); }

  static FrameContext* ctx_;
};

FrameContext* EvalOracleTest::ctx_ = nullptr;

std::vector<bool> prefix_set(std::size_t n, std::size_t k) {
  std::vector<bool> s(n, false);
  for (std::size_t i = 0; i < k && i < n; ++i) s[i] = true;
  return s;
}

std::vector<bool> random_set(std::size_t n, double p, Rng& rng) {
  std::vector<bool> s(n, false);
  for (std::size_t i = 0; i < n; ++i) s[i] = rng.chance(p);
  return s;
}

TEST_F(EvalOracleTest, EmptySetShortcutEqualsComputedScore) {
  const FrameContext& ctx = *ctx_;
  const video::Frame blank = reconstruct_from_units(
      ctx, std::vector<bool>(ctx.units.size(), false));
  EXPECT_EQ(blank.y.pix, video::Frame::blank(kW, kH).y.pix);
  EXPECT_EQ(quality::ssim(ctx.original, blank), ctx.content.blank_ssim);
  EXPECT_EQ(quality::psnr(ctx.original, blank), ctx.blank_psnr);
}

TEST_F(EvalOracleTest, LumaDecodeEqualsFullDecodeOnUnitSubsets) {
  const FrameContext& ctx = *ctx_;
  const std::size_t n = ctx.units.size();
  Rng rng(13);
  video::ReconstructWorkspace ws;
  video::Plane y;
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<bool> set = random_set(n, rng.uniform(), rng);
    splice_units(ctx, set, ws);
    ws.finish_luma(y);
    EXPECT_EQ(y.pix, reconstruct_from_units(ctx, set).y.pix) << trial;
  }
}

TEST_F(EvalOracleTest, ScoresEqualNaivePerUserReferenceBitForBit) {
  const FrameContext& ctx = *ctx_;
  const std::size_t n = ctx.units.size();
  ASSERT_GT(n, 8u);
  Rng rng(99);
  const std::vector<bool> a = prefix_set(n, n / 2);
  const std::vector<bool> b = random_set(n, 0.7, rng);
  const std::vector<bool> c = random_set(n, 0.2, rng);
  // Crafted rows: duplicates (adjacent and far apart), the empty and the
  // full set, a lone unit, and departed users holding sets that a present
  // user also holds (a departed row must neither score nor be copied).
  const std::vector<std::vector<bool>> decoded = {
      std::vector<bool>(n, false),  // 0 empty
      a,                            // 1
      a,                            // 2 duplicate of 1
      std::vector<bool>(n, true),   // 3 all units
      b,                            // 4, departed
      b,                            // 5 first present holder of b
      prefix_set(n, 1),             // 6 a lone unit
      c,                            // 7
      std::vector<bool>(n, false),  // 8 empty again
      a,                            // 9 far duplicate of 1
      std::vector<bool>(n, true),   // 10 departed, all units
      c,                            // 11 duplicate of 7
  };
  std::vector<std::uint8_t> present(decoded.size(), 1);
  present[4] = 0;
  present[10] = 0;

  std::vector<double> ref_ssim(decoded.size(), 0.0);
  std::vector<double> ref_psnr(decoded.size(), 0.0);
  std::vector<double> ref_frac(decoded.size(), 0.0);
  for (std::size_t u = 0; u < decoded.size(); ++u) {
    if (present[u] == 0) continue;
    const video::Frame rec = reconstruct_from_units(ctx, decoded[u]);
    ref_ssim[u] = quality::ssim(ctx.original, rec);
    ref_psnr[u] = quality::psnr(ctx.original, rec);
    std::size_t k = 0;
    for (bool bit : decoded[u]) k += bit ? 1 : 0;
    ref_frac[u] = static_cast<double>(k) / static_cast<double>(n);
  }

  EvalScratch scratch;
  std::vector<double> ssim, psnr, frac;
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " pool threads");
    ThreadPool::reset_shared(threads);
    const EvalCounts counts =
        evaluate_users(ctx, decoded, present, scratch, ssim, psnr, frac);
    ASSERT_EQ(ssim.size(), decoded.size());
    for (std::size_t u = 0; u < decoded.size(); ++u) {
      SCOPED_TRACE(::testing::Message() << "user " << u);
      EXPECT_EQ(ssim[u], ref_ssim[u]);
      EXPECT_EQ(psnr[u], ref_psnr[u]);
      EXPECT_EQ(frac[u], ref_frac[u]);
    }
    // Distinct non-empty present sets: a, all, b, lone unit, c.
    EXPECT_EQ(counts.scored, 5u);
    EXPECT_EQ(counts.reused, 5u);
  }
}

TEST_F(EvalOracleTest, RandomGroupsEqualNaiveReference) {
  const FrameContext& ctx = *ctx_;
  const std::size_t n = ctx.units.size();
  Rng rng(7);
  EvalScratch scratch;
  std::vector<double> ssim, psnr, frac;
  for (int trial = 0; trial < 4; ++trial) {
    // Users drawn from a few group outcomes, the shape a multicast frame
    // produces: most users share a set with someone.
    std::vector<std::vector<bool>> outcomes;
    for (int g = 0; g < 3; ++g)
      outcomes.push_back(rng.chance(0.5) ? prefix_set(n, rng.below(n + 1))
                                         : random_set(n, rng.uniform(), rng));
    std::vector<std::vector<bool>> decoded;
    for (int u = 0; u < 8; ++u) decoded.push_back(outcomes[rng.below(3)]);
    const std::vector<std::uint8_t> present;  // everyone present
    ThreadPool::reset_shared(1 + rng.below(4));
    evaluate_users(ctx, decoded, present, scratch, ssim, psnr, frac);
    for (std::size_t u = 0; u < decoded.size(); ++u) {
      const video::Frame rec = reconstruct_from_units(ctx, decoded[u]);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " user " << u);
      EXPECT_EQ(ssim[u], quality::ssim(ctx.original, rec));
      EXPECT_EQ(psnr[u], quality::psnr(ctx.original, rec));
    }
  }
}

}  // namespace
}  // namespace w4k::core
