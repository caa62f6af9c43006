// Allocation profile of the per-frame hot path (DESIGN.md Sec. 4g).
//
// Runs the pinned static 4-user scenario through the frame path
// (step_into / decide_into, one FrameOutcome and one Decision reused
// across frames). Reports heap allocations per frame (exact under a
// W4K_COUNT_ALLOCS build, n/a otherwise) and the step/decide latency
// distribution, written to BENCH_alloc.json for cross-commit comparison.
// The post-warmup allocation count is the number the tier-1 alloc gate
// pins to zero; this bench is its measurement twin.
//
//   cmake -B build-alloc -S . -DW4K_COUNT_ALLOCS=ON
//   cmake --build build-alloc --target bench_alloc
//   ./build-alloc/bench/bench_alloc      # writes ./BENCH_alloc.json
#include "common.h"

#include "common/alloc_count.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace {

using namespace w4k;

constexpr int kWarmupFrames = 3;
constexpr int kFrames = 120;

struct PathStats {
  double allocs_per_frame = 0.0;  ///< mean over measured frames
  std::uint64_t allocs_max = 0;   ///< worst single frame
  double step_p99_ms = 0.0;
  double step_mean_ms = 0.0;
  double decide_p99_ms = 0.0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// One full measurement of the frame path on the pinned scenario.
PathStats measure_path(const std::vector<linalg::CVector>& channels,
                       const std::vector<core::FrameContext>& contexts) {
  core::SessionConfig cfg = core::SessionConfig::scaled(bench::kWidth,
                                                        bench::kHeight);
  cfg.seed = 2025;
  core::MulticastSession session(cfg, bench::quality_model(),
                                 beamforming::Codebook{});
  const fault::FrameFaults no_faults;
  core::FrameOutcome outcome;

  PathStats out;
  std::vector<double> step_ms;
  std::vector<std::uint64_t> allocs;
  step_ms.reserve(kFrames);
  allocs.reserve(kFrames);
  for (int f = 0; f < kWarmupFrames + kFrames; ++f) {
    const core::FrameContext& ctx =
        contexts[static_cast<std::size_t>(f) % contexts.size()];
    const alloc_count::Scope scope;
    const auto t0 = std::chrono::steady_clock::now();
    session.step_into(channels, channels, ctx, no_faults, outcome);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (f < kWarmupFrames) continue;
    step_ms.push_back(ms);
    allocs.push_back(scope.taken());
  }
  out.step_p99_ms = percentile(step_ms, 0.99);
  out.step_mean_ms = mean(step_ms);
  double total = 0.0;
  for (std::uint64_t a : allocs) {
    total += static_cast<double>(a);
    out.allocs_max = std::max(out.allocs_max, a);
  }
  out.allocs_per_frame = total / static_cast<double>(allocs.size());

  // decide_into-only latency on a fresh session (its own warmup, so workspace
  // sizing is not inherited from the frame loop above).
  core::MulticastSession dsession(cfg, bench::quality_model(),
                                  beamforming::Codebook{});
  const std::vector<std::uint8_t> exclude(channels.size(), 0);
  core::MulticastSession::Decision decision;
  std::vector<double> decide_ms;
  decide_ms.reserve(kFrames);
  for (int f = 0; f < kWarmupFrames + kFrames; ++f) {
    const auto t0 = std::chrono::steady_clock::now();
    dsession.decide_into(channels, contexts.front(), exclude, decision);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (f >= kWarmupFrames) decide_ms.push_back(ms);
  }
  out.decide_p99_ms = percentile(decide_ms, 0.99);
  return out;
}

void print_path(const char* label, const PathStats& s, bool counting) {
  if (counting)
    std::printf("%-10s allocs/frame %8.1f (max %6llu)  step p99 %7.3f ms  "
                "decide p99 %7.3f ms\n",
                label, s.allocs_per_frame,
                static_cast<unsigned long long>(s.allocs_max), s.step_p99_ms,
                s.decide_p99_ms);
  else
    std::printf("%-10s allocs/frame      n/a             step p99 %7.3f ms  "
                "decide p99 %7.3f ms\n",
                label, s.step_p99_ms, s.decide_p99_ms);
}

}  // namespace

int main() {
  bench::BenchMain bm("bench_alloc", /*telemetry=*/false);
  bench::print_header(
      "Zero-allocation frame path: step_into / decide_into",
      "the frame path reaches 0 allocs/frame after warmup");

  const bool counting = alloc_count::counting_available();
  bm.set("count_allocs_build", counting ? "on" : "off");
  bm.set("frames", static_cast<std::int64_t>(kFrames));
  bm.set("warmup_frames", static_cast<std::int64_t>(kWarmupFrames));
  if (!counting)
    std::printf("# W4K_COUNT_ALLOCS is off: allocation counts read as n/a; "
                "latency columns remain valid\n");

  Rng rng(5);
  channel::PropagationConfig prop;
  const auto channels = core::channels_for(
      prop, core::place_users_fixed(4, 3.0, 1.047, rng));
  const auto& contexts = bench::hr_contexts();

  const PathStats workspace = measure_path(channels, contexts);
  print_path("workspace", workspace, counting);

  std::ofstream os("BENCH_alloc.json");
  os << "{\n"
     << "  \"counting_available\": " << (counting ? "true" : "false")
     << ",\n"
     << "  \"frames\": " << kFrames << ",\n"
     << "  \"warmup_frames\": " << kWarmupFrames << ",\n"
     << "  \"workspace\": {\"allocs_per_frame\": "
     << workspace.allocs_per_frame
     << ", \"allocs_max\": " << workspace.allocs_max
     << ", \"step_mean_ms\": " << workspace.step_mean_ms
     << ", \"step_p99_ms\": " << workspace.step_p99_ms
     << ", \"decide_p99_ms\": " << workspace.decide_p99_ms << "}\n"
     << "}\n";
  os.close();
  std::printf("written: BENCH_alloc.json\n");

  // Shape check: in a counting build the frame path must be exactly
  // allocation-free after warmup — the same contract the tier-1 gate pins.
  bool ok = true;
  if (counting) {
    ok = workspace.allocs_max == 0;
    std::printf("workspace steady-state allocs: %llu (%s)\n",
                static_cast<unsigned long long>(workspace.allocs_max),
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
