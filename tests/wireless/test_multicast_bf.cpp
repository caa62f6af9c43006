#include "beamforming/multicast.h"

#include "channel/array.h"
#include "channel/propagation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace w4k::beamforming {
namespace {

std::vector<linalg::CVector> channels_at(
    std::initializer_list<std::pair<double, double>> dist_az) {
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> out;
  for (const auto& [d, az] : dist_az)
    out.push_back(
        channel::make_channel(prop, channel::Position::from_polar(d, az)));
  return out;
}

/// group_beam_into on a fresh GroupBeam.
GroupBeam beam_for(Scheme scheme, const std::vector<linalg::CVector>& chans,
                   const Codebook& codebook, std::uint64_t seed) {
  GroupBeam out;
  group_beam_into(scheme, chans, codebook, seed, out);
  return out;
}

Codebook default_codebook() {
  CodebookConfig cfg;
  return make_sector_codebook(cfg);
}

TEST(SchemeTraits, MulticastCapability) {
  EXPECT_TRUE(allows_multicast(Scheme::kOptimizedMulticast));
  EXPECT_TRUE(allows_multicast(Scheme::kPredefinedMulticast));
  EXPECT_FALSE(allows_multicast(Scheme::kOptimizedUnicast));
  EXPECT_FALSE(allows_multicast(Scheme::kPredefinedUnicast));
}

TEST(SchemeTraits, Names) {
  EXPECT_EQ(to_string(Scheme::kOptimizedMulticast), "optimized-multicast");
  EXPECT_EQ(to_string(Scheme::kPredefinedUnicast), "pre-defined-unicast");
}

TEST(GroupBeam, EmptyGroupThrows) {
  const std::uint64_t seed = 1;
  EXPECT_THROW(beam_for(Scheme::kOptimizedUnicast, {}, Codebook{}, seed),
               std::invalid_argument);
}

TEST(GroupBeam, UnicastSchemeRejectsMultiMemberGroups) {
  const std::uint64_t seed = 2;
  const auto chans = channels_at({{3.0, 0.1}, {3.0, -0.1}});
  EXPECT_THROW(beam_for(Scheme::kOptimizedUnicast, chans, Codebook{}, seed),
               std::invalid_argument);
}

TEST(GroupBeam, PredefinedSchemesNeedCodebook) {
  const std::uint64_t seed = 3;
  const auto chans = channels_at({{3.0, 0.1}});
  EXPECT_THROW(beam_for(Scheme::kPredefinedUnicast, chans, Codebook{}, seed),
               std::invalid_argument);
}

TEST(GroupBeam, OptimizedUnicastIsMrt) {
  const std::uint64_t seed = 4;
  const auto chans = channels_at({{3.0, 0.2}});
  const GroupBeam g =
      beam_for(Scheme::kOptimizedUnicast, chans, Codebook{}, seed);
  // MRT achieves ||h||^2 exactly.
  EXPECT_NEAR(g.min_rss.value,
              Dbm::from_milliwatts(chans[0].norm_sq()).value, 1e-9);
  EXPECT_GT(g.rate.value, 0.0);
  EXPECT_NEAR(g.beam.norm(), 1.0, 1e-12);
}

TEST(GroupBeam, OptimizedBeatsPredefinedUnicast) {
  const std::uint64_t seed = 5;
  const auto cb = default_codebook();
  const auto chans = channels_at({{3.0, 0.23}});
  const auto opt =
      beam_for(Scheme::kOptimizedUnicast, chans, Codebook{}, seed);
  const auto pre = beam_for(Scheme::kPredefinedUnicast, chans, cb, seed);
  EXPECT_GE(opt.min_rss.value, pre.min_rss.value);
}

TEST(GroupBeam, OptimizedMulticastBeatsPredefinedMulticast) {
  const std::uint64_t seed = 6;
  const auto cb = default_codebook();
  const auto chans = channels_at({{3.0, 0.5}, {3.0, -0.5}});
  const auto opt =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  const auto pre = beam_for(Scheme::kPredefinedMulticast, chans, cb, seed);
  EXPECT_GE(opt.min_rss.value, pre.min_rss.value - 0.5);
}

TEST(GroupBeam, MulticastBeamReachesBothUsers) {
  // The headline property: a multi-lobe beam serves angularly separated
  // users far better than either user's unicast beam serves the other.
  const std::uint64_t seed = 7;
  const auto chans = channels_at({{3.0, 0.5}, {3.0, -0.5}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  ASSERT_EQ(multi.member_rss.size(), 2u);
  // Unicast beam for user 0 evaluated at user 1:
  const auto f0 = chans[0].conj().normalized();
  const double cross = channel::beam_rss(chans[1], f0).value;
  EXPECT_GT(multi.min_rss.value, cross + 6.0);
}

TEST(GroupBeam, MulticastSplitsPowerVersusUnicast) {
  // Serving two users with one beam costs roughly 3 dB against a
  // dedicated beam per user (power split across two lobes).
  const std::uint64_t seed = 8;
  const auto chans = channels_at({{3.0, 0.5}, {3.0, -0.5}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  const auto uni =
      beam_for(Scheme::kOptimizedUnicast, {chans[0]}, Codebook{}, seed);
  const double split_loss = uni.min_rss.value - multi.min_rss.value;
  EXPECT_GT(split_loss, 1.0);
  EXPECT_LT(split_loss, 7.0);
}

TEST(GroupBeam, SingletonOptimizedMulticastEqualsMrt) {
  const std::uint64_t seed = 9;
  const auto chans = channels_at({{4.0, 0.3}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  const auto uni =
      beam_for(Scheme::kOptimizedUnicast, chans, Codebook{}, seed);
  EXPECT_NEAR(multi.min_rss.value, uni.min_rss.value, 1e-9);
}

TEST(GroupBeam, MinRssIsBottleneckMember) {
  const std::uint64_t seed = 10;
  const auto chans = channels_at({{3.0, 0.2}, {10.0, -0.4}});
  const auto g =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  double min = 1e9;
  for (const auto& r : g.member_rss) min = std::min(min, r.value);
  EXPECT_DOUBLE_EQ(g.min_rss.value, min);
  // Rate corresponds to the min RSS per Table 2.
  EXPECT_DOUBLE_EQ(g.rate.value,
                   channel::rate_for_rss(g.min_rss).value);
}

TEST(GroupBeam, CloseUsersMulticastNearlyFree) {
  // Users 3 degrees apart share one lobe: the multicast penalty vs
  // unicast should be far below the 3 dB split.
  const std::uint64_t seed = 11;
  const auto chans = channels_at({{3.0, 0.00}, {3.0, 0.05}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  const auto uni =
      beam_for(Scheme::kOptimizedUnicast, {chans[0]}, Codebook{}, seed);
  EXPECT_GT(multi.min_rss.value, uni.min_rss.value - 3.0);
}

TEST(GroupBeam, FarUserYieldsZeroRate) {
  const std::uint64_t seed = 12;
  const auto chans = channels_at({{200.0, 0.0}});
  const auto g =
      beam_for(Scheme::kOptimizedUnicast, chans, Codebook{}, seed);
  EXPECT_DOUBLE_EQ(g.rate.value, 0.0);
}

TEST(GroupBeam, EightUserGroupStillServed) {
  const std::uint64_t seed = 13;
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> chans;
  for (int i = 0; i < 8; ++i)
    chans.push_back(channel::make_channel(
        prop, channel::Position::from_polar(6.0, -0.6 + 0.17 * i)));
  const auto g =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  EXPECT_EQ(g.member_rss.size(), 8u);
  EXPECT_GT(g.rate.value, 0.0);
}

TEST(GroupBeam, DeadMemberAddsNoRow) {
  // A zero channel contributes no row to the stacked SVD: the beam equals
  // the live members' beam bit for bit, and the dead member reads -300 dBm.
  const std::uint64_t seed = 14;
  const auto chans = channels_at({{3.0, 0.4}, {5.0, -0.3}});
  const std::vector<linalg::CVector> with_dead{
      chans[0], linalg::CVector(chans[0].size()), chans[1]};
  const auto live =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  const auto dead =
      beam_for(Scheme::kOptimizedMulticast, with_dead, Codebook{}, seed);
  ASSERT_EQ(live.beam.size(), dead.beam.size());
  for (std::size_t i = 0; i < live.beam.size(); ++i)
    EXPECT_EQ(live.beam[i], dead.beam[i]);
  ASSERT_EQ(dead.member_rss.size(), 3u);
  EXPECT_EQ(dead.member_rss[0].value, live.member_rss[0].value);
  EXPECT_EQ(dead.member_rss[2].value, live.member_rss[1].value);
  EXPECT_DOUBLE_EQ(dead.rate.value, 0.0);
}

TEST(GroupBeam, GroupTallerThanTheArrayStillServed) {
  // More members than antennas: the stack is tall and the SVD iterates on
  // the column-side Gram. The beam stays unit norm and reaches everyone.
  const std::uint64_t seed = 15;
  channel::PropagationConfig prop;
  prop.n_antennas = 4;
  std::vector<linalg::CVector> chans;
  for (int i = 0; i < 6; ++i)
    chans.push_back(channel::make_channel(
        prop, channel::Position::from_polar(3.0, -0.3 + 0.12 * i)));
  const auto g =
      beam_for(Scheme::kOptimizedMulticast, chans, Codebook{}, seed);
  EXPECT_EQ(g.beam.size(), 4u);
  EXPECT_NEAR(g.beam.norm(), 1.0, 1e-12);
  EXPECT_EQ(g.member_rss.size(), 6u);
  EXPECT_GT(g.rate.value, 0.0);
}

}  // namespace
}  // namespace w4k::beamforming
