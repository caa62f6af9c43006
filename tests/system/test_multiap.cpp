// Multi-AP attachment, handoff, and peer-relay behavior against the full
// session loop: the single-AP compatibility contract (step_multi_into
// with one AP stack is exactly step_into), the attachment state machine
// walking degraded -> probing -> handing-off -> attached under a total AP
// outage, partition-pure grouping, config/stack shape validation, and the
// headline robustness claim — a quarantined-but-relayable user's
// base-layer delivery is strictly better with peer relay on than off,
// averaged over many seeded blockage patterns.
#include "channel/multi_ap.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "fault/injector.h"
#include "fault/plan.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace w4k {
namespace {

constexpr int kW = 256;
constexpr int kH = 144;
constexpr std::size_t kUsers = 4;
constexpr int kFrames = 16;

class MultiApTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    quality_ = new model::QualityModel(42);
    core::PretrainedOptions opts;
    opts.cache_path = "session_test_model.cache";
    core::ensure_trained(*quality_, opts);
    video::VideoSpec spec;
    spec.width = kW;
    spec.height = kH;
    spec.frames = 3;
    spec.seed = 11;
    contexts_ = new std::vector<core::FrameContext>(core::make_contexts(
        video::SyntheticVideo(spec), 2, core::scaled_symbol_size(kW, kH)));
  }
  static void TearDownTestSuite() {
    delete quality_;
    delete contexts_;
    quality_ = nullptr;
    contexts_ = nullptr;
  }

  static model::QualityModel* quality_;
  static std::vector<core::FrameContext>* contexts_;
};

model::QualityModel* MultiApTest::quality_ = nullptr;
std::vector<core::FrameContext>* MultiApTest::contexts_ = nullptr;

std::string report_json(const core::SessionReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

struct Room {
  channel::MultiApGeometry geo;
  std::vector<std::vector<linalg::CVector>> stacks;
  std::vector<std::vector<double>> azimuths;
};

Room two_ap_room(std::size_t n_users) {
  Room room;
  channel::PropagationConfig prop;
  room.geo.prop = prop;
  room.geo.aps = channel::default_ap_layout(2, prop.room);
  Rng rng(5);
  const auto users = core::place_users_fixed(n_users, 3.0, 1.047, rng);
  room.stacks = channel::ap_channel_stacks(room.geo, users);
  room.azimuths = channel::ap_user_azimuths(room.geo, users);
  return room;
}

// --- Single-AP compatibility contract ---------------------------------

TEST_F(MultiApTest, SingleApStackBitIdenticalToStepInto) {
  Rng rng(5);
  channel::PropagationConfig prop;
  const auto channels = core::channels_for(
      prop, core::place_users_fixed(kUsers, 3.0, 1.047, rng));

  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;

  core::MulticastSession legacy(cfg, *quality_, beamforming::Codebook{});
  const std::string want = report_json(
      core::run_static(legacy, channels, *contexts_, kFrames));

  core::MulticastSession multi(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector no_faults(fault::FaultPlan{}, kUsers, 1);
  const std::string got = report_json(core::run_static_multi_ap(
      multi, {channels}, *contexts_, kFrames, &no_faults));

  EXPECT_EQ(want, got)
      << "1-AP step_multi_into diverged from the legacy step_into path";
}

// --- Shape / config validation ----------------------------------------

TEST_F(MultiApTest, MismatchedStackCountThrows) {
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.handoff.n_aps = 2;  // but pass 1 stack below
  cfg.handoff.enabled = true;
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector injector(fault::FaultPlan{}, kUsers, 1);
  EXPECT_THROW(core::run_static_multi_ap(session, {room.stacks[0]},
                                         *contexts_, 2, &injector),
               std::invalid_argument);
}

// A malformed frame is rejected before anything moves. With handoff on and
// every user weak on AP 0 (a total outage), a mis-sized feedback_lost mask
// mid-run must throw — and the attachment machines (weak streaks, probes,
// dwell) must not have advanced, so the rest of the run matches a session
// that never saw the bad call.
TEST_F(MultiApTest, RejectedFrameLeavesAttachmentStateUntouched) {
  const Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.enabled = true;
  cfg.handoff.min_dwell_frames = 4;
  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);

  const auto run = [&](int bad_frame) {
    core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});
    core::SessionReport report;
    core::FrameOutcome out;
    for (int f = 0; f < kFrames; ++f) {
      const auto frame = static_cast<std::uint32_t>(f);
      const core::FrameContext& ctx = (*contexts_)[frame % contexts_->size()];
      auto decision = room.stacks;
      auto truth = room.stacks;
      injector.apply_aps(frame, decision, truth, room.azimuths);
      const fault::FrameFaults faults = injector.at(frame);
      if (f == bad_frame) {
        fault::FrameFaults bad = faults;
        bad.feedback_lost.assign(kUsers + 1, 0);
        core::FrameOutcome rejected;
        EXPECT_THROW(
            session.step_multi_into(decision, truth, ctx, bad, rejected),
            std::invalid_argument);
      }
      session.step_multi_into(decision, truth, ctx, faults, out);
      report.add(out);
    }
    return report;
  };
  const core::SessionReport clean = run(-1);
  std::size_t handoffs = 0;
  for (std::size_t f = 0; f < clean.frames(); ++f)
    handoffs += clean.frame(f).handoffs;
  ASSERT_GT(handoffs, 0u) << "the outage never drove a handoff";
  // Frame 5: users are already weak (the outage reached the decision
  // beacon at frame 4) but not yet degraded.
  EXPECT_EQ(report_json(run(5)), report_json(clean));
}

TEST_F(MultiApTest, RelayWithoutTargetsRejectedAtValidate) {
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.relay.enabled = true;
  cfg.quarantine_after = 0;  // single AP + no quarantine: no target exists
  EXPECT_THROW(
      core::MulticastSession(cfg, *quality_, beamforming::Codebook{}),
      std::invalid_argument);
}

// --- Handoff state machine --------------------------------------------

TEST_F(MultiApTest, TotalOutageDrivesHandoffAndSticks) {
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.enabled = true;
  cfg.handoff.min_dwell_frames = 4;
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});

  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);
  const core::SessionReport report = core::run_static_multi_ap(
      session, room.stacks, *contexts_, kFrames, &injector, room.azimuths);

  // Everyone starts on the stronger AP 0 and the outage pushes them all
  // to AP 1 exactly once; the dwell window keeps them there even after
  // AP 0 recovers (it recovers at frame 13's decision beacon).
  std::size_t total_handoffs = 0;
  for (std::size_t f = 0; f < report.frames(); ++f) {
    ASSERT_EQ(report.frame(f).user_ap.size(), kUsers) << "frame " << f;
    total_handoffs += report.frame(f).handoffs;
  }
  EXPECT_EQ(report.frame(0).user_ap, std::vector<std::uint8_t>(kUsers, 0));
  EXPECT_EQ(total_handoffs, kUsers);
  EXPECT_EQ(report.frame(kFrames - 1).user_ap,
            std::vector<std::uint8_t>(kUsers, 1));
}

TEST_F(MultiApTest, HandoffDisabledNeverMoves) {
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.enabled = false;
  core::MulticastSession session(cfg, *quality_, beamforming::Codebook{});

  fault::FaultPlan plan;
  fault::ApOutage outage;
  outage.start_frame = 3;
  outage.n_frames = 10;
  outage.ap = 0;
  outage.total = true;
  plan.ap_outage.push_back(outage);
  const fault::FaultInjector injector(plan, kUsers, 2);
  const core::SessionReport report = core::run_static_multi_ap(
      session, room.stacks, *contexts_, kFrames, &injector, room.azimuths);

  for (std::size_t f = 0; f < report.frames(); ++f) {
    EXPECT_EQ(report.frame(f).handoffs, 0u) << "frame " << f;
    EXPECT_EQ(report.frame(f).user_ap,
              std::vector<std::uint8_t>(kUsers, 0))
        << "frame " << f;
  }
}

TEST_F(MultiApTest, SectorOutageOnlySilencesCoveredUsers) {
  // A sector outage aimed away from every user must not trigger any
  // handoff; aimed at the whole room it behaves like a total outage.
  Room room = two_ap_room(kUsers);
  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = 7;
  cfg.handoff.n_aps = 2;
  cfg.handoff.enabled = true;
  cfg.handoff.min_dwell_frames = 4;

  fault::ApOutage sector;
  sector.start_frame = 3;
  sector.n_frames = 10;
  sector.ap = 0;
  sector.total = false;
  sector.sector_width_deg = 10.0;
  sector.sector_center_deg = 180.0;  // pointing away from the user arc

  fault::FaultPlan miss_plan;
  miss_plan.ap_outage.push_back(sector);
  core::MulticastSession missed(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector miss_inj(miss_plan, kUsers, 2);
  const core::SessionReport miss_report = core::run_static_multi_ap(
      missed, room.stacks, *contexts_, kFrames, &miss_inj, room.azimuths);
  std::size_t miss_handoffs = 0;
  for (std::size_t f = 0; f < miss_report.frames(); ++f)
    miss_handoffs += miss_report.frame(f).handoffs;
  EXPECT_EQ(miss_handoffs, 0u);

  sector.sector_center_deg = 0.0;  // boresight: covers the user arc
  sector.sector_width_deg = 360.0;
  fault::FaultPlan hit_plan;
  hit_plan.ap_outage.push_back(sector);
  core::MulticastSession hit(cfg, *quality_, beamforming::Codebook{});
  const fault::FaultInjector hit_inj(hit_plan, kUsers, 2);
  const core::SessionReport hit_report = core::run_static_multi_ap(
      hit, room.stacks, *contexts_, kFrames, &hit_inj, room.azimuths);
  std::size_t hit_handoffs = 0;
  for (std::size_t f = 0; f < hit_report.frames(); ++f)
    hit_handoffs += hit_report.frame(f).handoffs;
  EXPECT_EQ(hit_handoffs, kUsers);
}

// --- Relay acceptance: quarantined delivery on vs off ------------------

// One seeded single-AP scenario: a persistent blockage the beacon never
// sees drives one user into quarantine; return the mean decoded fraction
// of that user over its quarantined frames (relay delivers base-layer
// symbols, so any decoded unit there came over the side link or a
// re-probe).
double quarantined_delivery(model::QualityModel& quality,
                            const std::vector<core::FrameContext>& contexts,
                            std::uint64_t seed, bool relay_on,
                            bool* saw_quarantine) {
  Rng rng(seed * 2 + 1);
  channel::PropagationConfig prop;
  const auto channels = core::channels_for(
      prop,
      core::place_users_fixed(kUsers, rng.uniform(2.5, 4.0), 1.047, rng));

  fault::FaultPlan plan;
  fault::BlockageBurst burst;
  burst.start_frame = 1 + static_cast<std::uint32_t>(rng.below(2));
  burst.n_frames = static_cast<std::uint32_t>(kFrames);
  burst.user = rng.below(kUsers);
  burst.extra_loss_db = rng.uniform(32.0, 45.0);
  plan.blockage.push_back(burst);
  for (std::uint32_t f = burst.start_frame;
       f < static_cast<std::uint32_t>(kFrames); ++f)
    plan.csi.push_back({f, /*corrupt=*/false});

  core::SessionConfig cfg = core::SessionConfig::scaled(kW, kH);
  cfg.seed = seed + 1;
  cfg.relay.enabled = relay_on;
  cfg.quarantine_after = 2;
  cfg.quarantine_reprobe_period = 4;
  core::MulticastSession session(cfg, quality, beamforming::Codebook{});
  const fault::FaultInjector injector(plan, kUsers);
  const core::SessionReport report =
      core::run_static(session, channels, contexts, kFrames, &injector);

  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t f = 0; f < report.frames(); ++f) {
    const auto& q = report.frame(f).user_quarantined;
    if (q.size() <= burst.user || !q[burst.user]) continue;
    sum += report.frame(f).decoded_fraction[burst.user];
    ++n;
  }
  if (n > 0) *saw_quarantine = true;
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

TEST_F(MultiApTest, RelayImprovesQuarantinedDelivery) {
  // The acceptance sweep: 50 seeded blockage patterns, each run with peer
  // relay on and off under otherwise identical configs. Relay must help
  // strictly in aggregate (and never require a new decode path — the
  // decoded fractions come from the same fountain decoder either way).
  constexpr std::uint64_t kSeeds = 50;
  double mean_on = 0.0;
  double mean_off = 0.0;
  std::size_t quarantined_runs = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    bool saw = false;
    mean_on +=
        quarantined_delivery(*quality_, *contexts_, seed, true, &saw);
    mean_off +=
        quarantined_delivery(*quality_, *contexts_, seed, false, &saw);
    if (saw) ++quarantined_runs;
  }
  // The construction guarantees quarantine engages in (nearly) every
  // seed; demand it in at least 90% so the comparison is meaningful.
  EXPECT_GE(quarantined_runs, kSeeds * 9 / 10);
  EXPECT_GT(mean_on / kSeeds, mean_off / kSeeds)
      << "peer relay did not improve quarantined users' base-layer "
         "delivery (on="
      << mean_on / kSeeds << ", off=" << mean_off / kSeeds << ")";
}

}  // namespace
}  // namespace w4k
