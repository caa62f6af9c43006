// Experiment runners: user placement helpers and the static / trace-driven
// streaming loops shared by the benchmark harnesses and tests.
#pragma once

#include "channel/mobility.h"
#include "channel/propagation.h"
#include "core/report.h"
#include "core/session.h"
#include "fault/injector.h"

#include <vector>

namespace w4k::core {

/// Places `n` users at a fixed distance with angular positions drawn so the
/// spread from leftmost to rightmost equals the given maximum angular
/// spacing (testbed placements, Fig. 4a).
std::vector<channel::Position> place_users_fixed(std::size_t n,
                                                 double distance_m,
                                                 double mas_rad, Rng& rng);

/// Random placements with distance in [min, max] and azimuths inside a
/// window of width `mas_rad` (emulation placements, Fig. 4b).
std::vector<channel::Position> place_users_random(std::size_t n,
                                                  double min_distance_m,
                                                  double max_distance_m,
                                                  double mas_rad, Rng& rng);

/// Channels for a static placement.
std::vector<linalg::CVector> channels_for(
    const channel::PropagationConfig& prop,
    const std::vector<channel::Position>& users);

/// Same, writing into a caller-owned vector whose per-user channel buffers
/// are reused across calls (mobility loops regenerating channels per step).
void channels_for_into(const channel::PropagationConfig& prop,
                       const std::vector<channel::Position>& users,
                       std::vector<linalg::CVector>& out);

// Every runner below drives one frame loop. Frame f steps contexts[f %
// contexts.size()]. With an injector, each frame's FrameFaults come from
// `injector->at(f)` and its channel-level faults (blockage bursts, CSI
// corruption, AP outages) are applied to per-frame copies of the decision
// and true channels before stepping; null (the default) streams the
// channels as given, copying nothing. An empty FaultPlan reproduces the
// fault-free run bit-identically — the chaos suite asserts this.

/// Streams `n_frames` over a static channel. Decision CSI equals the true
/// channel (static case: beacons are fresh). Returns the accumulated
/// per-frame outcomes with all the aggregation helpers of SessionReport
/// (per-(frame,user) quality via all_ssim(), raw outcomes via
/// frame_outcomes()).
SessionReport run_static(MulticastSession& session,
                         const std::vector<linalg::CVector>& channels,
                         const std::vector<FrameContext>& contexts,
                         int n_frames,
                         const fault::FaultInjector* injector = nullptr);

/// Streams over a CSI trace at 30 FPS (3 frames per 100 ms beacon): the
/// sender acts on the previous beacon's CSI while the true channel is the
/// current snapshot — the one-beacon staleness of real 802.11ad.
SessionReport run_trace(MulticastSession& session,
                        const channel::CsiTrace& trace,
                        const std::vector<FrameContext>& contexts,
                        int frames_per_snapshot = 3,
                        const fault::FaultInjector* injector = nullptr);

/// Multi-AP static loop over per-AP channel stacks ([ap][user],
/// channel::ap_channel_stacks), streamed through session.step_multi_into.
/// The injector's faults go through apply_aps, which adds AP scoping to
/// blockage and total/sector outages; `azimuths[a][u]`
/// (channel::ap_user_azimuths) feeds the sector-outage geometry — pass {}
/// to degrade sector outages to total ones. With one AP stack and a plan
/// with no AP-level faults this is bit-identical to run_static.
SessionReport run_static_multi_ap(
    MulticastSession& session,
    const std::vector<std::vector<linalg::CVector>>& stacks,
    const std::vector<FrameContext>& contexts, int n_frames,
    const fault::FaultInjector* injector = nullptr,
    const std::vector<std::vector<double>>& azimuths = {});

}  // namespace w4k::core
