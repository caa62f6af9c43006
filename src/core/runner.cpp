#include "core/runner.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace w4k::core {

std::vector<channel::Position> place_users_fixed(std::size_t n,
                                                 double distance_m,
                                                 double mas_rad, Rng& rng) {
  if (n == 0) throw std::invalid_argument("place_users_fixed: n == 0");
  std::vector<channel::Position> out;
  if (n == 1) {
    out.push_back(channel::Position::from_polar(
        distance_m, rng.uniform(-mas_rad / 2.0, mas_rad / 2.0)));
    return out;
  }
  // Leftmost and rightmost users pin the spread to exactly `mas_rad`;
  // everyone else lands uniformly between them. The window itself is
  // centred with a small random offset, like the testbed placements.
  const double centre = rng.uniform(-0.1, 0.1);
  const double left = centre - mas_rad / 2.0;
  out.push_back(channel::Position::from_polar(distance_m, left));
  for (std::size_t i = 2; i < n; ++i)
    out.push_back(channel::Position::from_polar(
        distance_m, left + rng.uniform(0.0, mas_rad)));
  out.push_back(channel::Position::from_polar(distance_m, left + mas_rad));
  return out;
}

std::vector<channel::Position> place_users_random(std::size_t n,
                                                  double min_distance_m,
                                                  double max_distance_m,
                                                  double mas_rad, Rng& rng) {
  if (n == 0) throw std::invalid_argument("place_users_random: n == 0");
  std::vector<channel::Position> out;
  const double centre = rng.uniform(-0.2, 0.2);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = rng.uniform(min_distance_m, max_distance_m);
    const double az = centre + rng.uniform(-mas_rad / 2.0, mas_rad / 2.0);
    out.push_back(channel::Position::from_polar(d, az));
  }
  return out;
}

std::vector<linalg::CVector> channels_for(
    const channel::PropagationConfig& prop,
    const std::vector<channel::Position>& users) {
  std::vector<linalg::CVector> out;
  channels_for_into(prop, users, out);
  return out;
}

void channels_for_into(const channel::PropagationConfig& prop,
                       const std::vector<channel::Position>& users,
                       std::vector<linalg::CVector>& out) {
  out.resize(users.size());
  for (std::size_t i = 0; i < users.size(); ++i)
    out[i] = channel::make_channel(prop, users[i]);
}

namespace {

using Channels = std::vector<linalg::CVector>;
using Stacks = std::vector<Channels>;  // [ap][user]
using Azimuths = std::vector<std::vector<double>>;

/// The one frame loop behind every runner. `source(f)` names frame f's
/// pristine (decision, truth) channels. Without an injector the session
/// steps them directly; with one, the frame's faults are applied to copies
/// that are hoisted out of the loop, so copy-assignment reuses their
/// buffers instead of reallocating every frame.
template <class Stack, class Source>
SessionReport frame_loop(MulticastSession& session,
                         const std::vector<FrameContext>& contexts,
                         int n_frames, const fault::FaultInjector* injector,
                         Source source, const Azimuths& azimuths = {}) {
  constexpr bool kMultiAp = std::is_same_v<Stack, Stacks>;
  SessionReport report;
  FrameOutcome outcome;
  Stack decision_copy;
  Stack truth_copy;
  for (int f = 0; f < n_frames; ++f) {
    const auto frame = static_cast<std::uint32_t>(f);
    const FrameContext& ctx = contexts[frame % contexts.size()];
    auto [decision, truth] = source(frame);
    fault::FrameFaults faults;
    if (injector != nullptr) {
      faults = injector->at(frame);
      decision_copy = *decision;
      truth_copy = *truth;
      if constexpr (kMultiAp)
        injector->apply_aps(frame, decision_copy, truth_copy, azimuths);
      else
        injector->apply(frame, decision_copy, truth_copy);
      decision = &decision_copy;
      truth = &truth_copy;
    }
    if constexpr (kMultiAp)
      session.step_multi_into(*decision, *truth, ctx, faults, outcome);
    else
      session.step_into(*decision, *truth, ctx, faults, outcome);
    report.add(outcome);
  }
  return report;
}

}  // namespace

SessionReport run_static(MulticastSession& session, const Channels& channels,
                         const std::vector<FrameContext>& contexts,
                         int n_frames, const fault::FaultInjector* injector) {
  if (contexts.empty())
    throw std::invalid_argument("run_static: no frame contexts");
  return frame_loop<Channels>(
      session, contexts, n_frames, injector, [&](std::uint32_t) {
        return std::pair{&channels, &channels};
      });
}

SessionReport run_trace(MulticastSession& session,
                        const channel::CsiTrace& trace,
                        const std::vector<FrameContext>& contexts,
                        int frames_per_snapshot,
                        const fault::FaultInjector* injector) {
  if (contexts.empty())
    throw std::invalid_argument("run_trace: no frame contexts");
  if (trace.steps() == 0)
    throw std::invalid_argument("run_trace: empty trace");
  const int n_frames = static_cast<int>(trace.steps()) * frames_per_snapshot;
  return frame_loop<Channels>(
      session, contexts, n_frames, injector, [&](std::uint32_t frame) {
        const std::size_t t =
            frame / static_cast<std::uint32_t>(frames_per_snapshot);
        return std::pair{&trace.snapshots[t > 0 ? t - 1 : 0],
                         &trace.snapshots[t]};
      });
}

SessionReport run_static_multi_ap(MulticastSession& session,
                                  const Stacks& stacks,
                                  const std::vector<FrameContext>& contexts,
                                  int n_frames,
                                  const fault::FaultInjector* injector,
                                  const Azimuths& azimuths) {
  if (contexts.empty())
    throw std::invalid_argument("run_static_multi_ap: no frame contexts");
  if (stacks.empty())
    throw std::invalid_argument("run_static_multi_ap: no AP stacks");
  return frame_loop<Stacks>(
      session, contexts, n_frames, injector,
      [&](std::uint32_t) { return std::pair{&stacks, &stacks}; }, azimuths);
}

}  // namespace w4k::core
