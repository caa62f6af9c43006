// w4kbench: one measured pass of the w4k benchmark. perfbench/run.py builds
// it, warms the quality-model cache, runs it and turns its RESULT line into
// the benchmark's metrics. BENCHMARK.json says why each workload exists;
// perfbench/design.json defines the metrics and which layer metric should
// move which end-to-end metric.
//
//   w4kbench --mode plain  --workload W --seed N --seconds S --model M
//   w4kbench --mode traced --workload W --seed N --seconds S --model M
//            --trace-out T
//   w4kbench --mode train  --model M
//
// --tiny shrinks the inputs and makes one set-up (selfcheck.py); --threads N
// replaces the workload's shared-pool size.
//
// Workloads:
//   mobile12_144p, static8_4k                core::MulticastSession::step_into
//   serve_room64                             serve::Daemon::publish_one ->
//                                            serve::Client::drain ->
//                                            fec::FountainDecoder
//
// plain runs with telemetry off. traced runs an untraced half and then a
// traced half (telemetry + Chrome trace capture) of the same seed in this
// process, requires both halves to produce the same output digest, and
// writes the trace for the per-layer analysis in run.py. Every pass checks
// its outputs; a failed check makes the result incorrect and the exit code
// non-zero.
#include "channel/mobility.h"
#include "common/args.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pretrained.h"
#include "core/runner.h"
#include "core/session.h"
#include "fec/fountain.h"
#include "gf256/gf256.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "quality/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "video/synthetic.h"

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace w4k;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Quantile of time-ordered samples, steadied against a shared host whose
/// vCPUs each switch between fast and slow phases (up to 1.75x apart,
/// lasting seconds): the run is cut into up to 20 consecutive slices that
/// each keep at least 20 samples beyond the quantile, and the result is the
/// interquartile mean of the slice quantiles. Unlike their median it does
/// not jump between the fast and slow phase as their share of a run passes
/// one half, and unlike their mean it ignores slices hit by a slow phase or
/// a steal burst. A run too short for 4 such slices (static8_4k's ~20
/// frames) is cut into quarters, and one shorter than 8 samples is not cut.
double sliced_quantile(const std::vector<double>& v, double q) {
  const auto beyond = static_cast<std::size_t>(static_cast<double>(v.size()) * (1.0 - q));
  std::size_t slices = std::min<std::size_t>(20, beyond / 20);
  if (slices < 4) slices = v.size() >= 8 ? 4 : 1;
  if (slices == 1) return quantile(v, q);
  std::vector<double> per_slice;
  for (std::size_t i = 0; i < slices; ++i) {
    const auto b = v.begin() + static_cast<std::ptrdiff_t>(v.size() * i / slices);
    const auto e = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (i + 1) / slices);
    per_slice.push_back(quantile(std::vector<double>(b, e), q));
  }
  std::sort(per_slice.begin(), per_slice.end());
  const std::size_t lo = slices / 4, hi = slices - slices / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += per_slice[i];
  return sum / static_cast<double>(hi - lo);
}

/// FNV-1a over the raw bytes of the output series.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void add(double v) { add(&v, sizeof v); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (c == '\n') ? ' ' : c;
  }
  return q + "\"";
}

/// Flat JSON object writer (numbers at full precision).
class JsonObject {
 public:
  void num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(k, buf);
  }
  void str(const std::string& k, const std::string& v) { field(k, quote(v)); }
  void raw(const std::string& k, const std::string& v) { field(k, v); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

/// What one pass measured. Times are host wall time.
struct Pass {
  std::vector<double> setup_s;           ///< one per set-up repetition
  std::vector<double> model_s, contexts_s, trace_s, session_s;
  std::vector<double> frame_ms;          ///< per timed frame
  std::vector<double> deliver_ms;        ///< per timed (frame, receiver)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ssim_mean = 0.0;
  double ssim_worst_user = 0.0;
  Digest digest;
  std::vector<std::string> errors;       ///< output-check failures
  std::uint64_t timed_frames = 0;
  double timed_from_us = 0.0;            ///< trace time of the first timed frame
  JsonObject layer;                      ///< pass-local per-layer inputs

  void error(const std::string& e) {
    if (errors.size() < 8) errors.push_back(e);
    else if (errors.size() == 8) errors.push_back("...");
  }
};

model::QualityModel load_model(const std::string& path, bool allow_train) {
  model::QualityModel m(42);
  core::PretrainedOptions opts;
  opts.cache_path = path;
  const double mse = core::ensure_trained(m, opts);
  if (mse > 0.0 && !allow_train)
    throw std::runtime_error("quality model cache " + path +
                             " was cold; run --mode train first");
  return m;
}

// --- Workloads ---------------------------------------------------------------
//
// Every setting of a workload lives in workload_spec(); run.py and the
// other scripts know the workloads only by the names in BENCHMARK.json.

struct EmuSpec {
  std::size_t users = 8;
  int width = 256;
  int height = 144;
  int contexts = 6;
  bool mobile = false;
  double trace_s = 30.0;     ///< CSI trace length (mobile), wrapped
  int warmup = 6;            ///< untimed frames after set-up
  int quality_frames = 120;  ///< digest / SSIM window, from frame 0
};

struct ServeSpec {
  std::size_t subs = 64;
  std::size_t sockets = 4;
  std::uint16_t units = 4;       ///< (layer, 0) units per frame
  std::uint16_t k = 20;
  std::uint16_t symbols = 16;    ///< per unit per frame: 64 = kMaxFrameSymbols
  /// An Ethernet-MTU payload. With 6000 B symbols the fan-out is bound by
  /// copying 25 MB a frame through loopback: on a contended host up to 1%
  /// of (frame, subscriber) pairs overflowed the receive buffers and the
  /// delivery median moved by half between runs; 1500 B leaves headroom.
  std::size_t symbol_bytes = 1500;
  double fps = 30.0;
  int warmup = 15;
  double give_up_s = 1.0;        ///< a pair still incomplete after this fails
};

struct WorkloadSpec {
  bool serve = false;
  /// Shared-pool size, the caller included. On a shared 4-vCPU host every
  /// parallel_for barrier waits for the slowest vCPU, so with all 4 busy
  /// CPU-steal bursts decide the frame-time tail. serve_room64 runs its
  /// daemon worker beside the caller instead.
  std::size_t pool_threads = 2;
  /// Set-ups per run (run_emulator spreads them over the timed window);
  /// setup_s is their median.
  int setup_reps = 25;
  EmuSpec emu;
  ServeSpec net;
};

WorkloadSpec workload_spec(const std::string& workload, bool tiny) {
  WorkloadSpec w;
  EmuSpec& s = w.emu;
  if (workload == "mobile12_144p") {
    s.users = 12;
    s.mobile = true;
    s.trace_s = tiny ? 2.0 : 30.0;  // about what a 30 s run walks through
    s.warmup = 3;
    s.quality_frames = tiny ? 9 : 240;
  } else if (workload == "static8_4k") {
    w.setup_reps = 3;  // 4K contexts take seconds each
    s.width = 3840;
    s.height = 2160;
    s.contexts = tiny ? 1 : 2;
    s.warmup = 1;
    s.quality_frames = tiny ? 2 : 8;
  } else if (workload == "serve_room64") {
    w.serve = true;
    w.pool_threads = 1;
    w.setup_reps = 301;  // ~3 ms each, in steps of port luck (open_room)
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  if (tiny) w.setup_reps = 1;
  return w;
}

/// Snapshot index pair (decision = previous beacon, truth = current) of a
/// frame on a wrapped trace at 3 frames per snapshot.
std::pair<std::size_t, std::size_t> trace_step(int frame, std::size_t steps) {
  const std::size_t t = static_cast<std::size_t>(frame / 3);
  const std::size_t truth = t % steps;
  const std::size_t decision = t == 0 ? 0 : (t - 1) % steps;
  return {decision, truth};
}

/// What one emulator set-up builds.
struct EmuSetup {
  std::optional<model::QualityModel> model;
  std::vector<core::FrameContext> contexts;
  std::vector<linalg::CVector> channels;
  channel::CsiTrace trace;
  std::optional<core::MulticastSession> session;
};

/// One timed set-up into `s`: quality-model load (warm cache), contexts,
/// placement or CSI trace, session construction.
void set_up(const EmuSpec& spec, std::uint64_t seed,
            const std::string& model_path, EmuSetup& s, Pass& p) {
  const auto t0 = Clock::now();
  s.model.emplace(load_model(model_path, false));
  const auto tm = Clock::now();
  {
    static obs::Stage& st = obs::stage("bench.make_contexts");
    obs::StageSpan span(st);
    const video::VideoSpec clip =
        video::standard_videos(spec.width, spec.height, 8)[0];
    s.contexts = core::make_contexts(
        video::SyntheticVideo(clip), spec.contexts,
        core::scaled_symbol_size(spec.width, spec.height));
  }
  const auto t1 = Clock::now();
  {
    static obs::Stage& st = obs::stage("bench.channels");
    obs::StageSpan span(st);
    if (spec.mobile) {
      channel::MovingReceiverConfig mc;
      mc.n_users = spec.users;  // every user walks: each snapshot misses
      mc.min_distance = 2.5;
      mc.max_distance = 7.5;
      mc.duration = spec.trace_s;
      mc.seed = seed;
      s.trace = channel::moving_receiver_trace(mc);
    } else {
      Rng rng(seed);
      channel::PropagationConfig prop;
      s.channels = core::channels_for(
          prop, core::place_users_fixed(spec.users, 3.0, 1.047, rng));
    }
  }
  const auto t2 = Clock::now();
  {
    static obs::Stage& st = obs::stage("bench.session");
    obs::StageSpan span(st);
    core::SessionConfig cfg = core::SessionConfig::scaled(spec.width, spec.height);
    cfg.seed = seed;
    if (spec.mobile) cfg.mcs_margin_db = 1.5;  // stale-CSI headroom
    s.session.emplace(cfg, *s.model, beamforming::Codebook{});
  }
  const auto t3 = Clock::now();
  p.setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());
  p.model_s.push_back(std::chrono::duration<double>(tm - t0).count());
  p.contexts_s.push_back(std::chrono::duration<double>(t1 - tm).count());
  p.trace_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  p.session_s.push_back(std::chrono::duration<double>(t3 - t2).count());
}

Pass run_emulator(const EmuSpec& spec, std::uint64_t seed, double seconds,
                  int setup_reps, const std::string& model_path) {
  Pass p;
  // The first set-up builds what the frames run on. The other set-ups are
  // throwaway copies spread evenly over the timed window, between frames
  // and off the window's clock, so setup_s (their median) samples the
  // host over the whole run rather than one moment of it. The frame after
  // each is not timed: its caches are cold.
  EmuSetup live;
  set_up(spec, seed, model_path, live, p);
  const int extra_setups = setup_reps - 1;
  int setups_done = 0;
  double paused_s = 0.0;
  bool cold_frame = false;
  const auto& contexts = live.contexts;
  const auto& channels = live.channels;
  const auto& trace = live.trace;
  auto& session = live.session;

  const fault::FrameFaults no_faults;
  core::FrameOutcome out;
  std::vector<double> user_ssim_sum(spec.users, 0.0);
  double ssim_total = 0.0;
  std::uint64_t user_frames = 0, distinct_outcomes = 0;
  std::uint32_t last_id = 0;
  std::vector<std::pair<double, double>> seen;
  static obs::Stage& st_step = obs::stage("bench.step_into");

  Clock::time_point timed_start{};
  double cpu0 = 0.0;
  for (int f = 0;; ++f) {
    if (f == spec.warmup) {
      // Counters cover timed frames only; the trace keeps everything.
      if (obs::enabled()) obs::MetricsRegistry::global().reset_values();
      p.timed_from_us = 1e-3 * static_cast<double>(obs::now_ns());
      timed_start = Clock::now();
      cpu0 = cpu_seconds();
    }
    const double window_s =
        f > spec.warmup ? seconds_since(timed_start) - paused_s : 0.0;
    if (f > spec.warmup && setups_done < extra_setups &&
        window_s >= (setups_done + 0.5) * seconds / extra_setups) {
      const auto s0 = Clock::now();
      {
        EmuSetup scratch;
        set_up(spec, seed, model_path, scratch, p);
      }
      paused_s += seconds_since(s0);
      ++setups_done;
      cold_frame = true;
    }
    if (f > spec.warmup && f >= spec.quality_frames &&
        setups_done == extra_setups && window_s >= seconds)
      break;
    const core::FrameContext& ctx =
        contexts[static_cast<std::size_t>(f) % contexts.size()];
    const std::vector<linalg::CVector>* decision = &channels;
    const std::vector<linalg::CVector>* truth = &channels;
    if (spec.mobile) {
      const auto [d, t] = trace_step(f, trace.steps());
      decision = &trace.snapshots[d];
      truth = &trace.snapshots[t];
    }
    const auto t0 = Clock::now();
    bool threw = false;
    try {
      obs::StageSpan span(st_step);
      session->step_into(*decision, *truth, ctx, no_faults, out);
    } catch (const std::exception& e) {
      threw = true;
      p.error(std::string("frame threw: ") + e.what());
    }
    const double ms = ms_between(t0, Clock::now());
    ++p.attempted;
    if (f >= spec.warmup) {
      ++p.timed_frames;
      if (!cold_frame) p.frame_ms.push_back(ms);
      cold_frame = false;
      if (!threw) p.deliver_ms.push_back(1e3 * out.stats.airtime);
    }

    // Output oracle: shapes, finite in-range quality, monotone frame ids.
    bool ok = !threw && out.ssim.size() == spec.users &&
              out.psnr.size() == spec.users &&
              out.decoded_fraction.size() == spec.users &&
              (f == 0 || out.frame_id > last_id);
    for (std::size_t u = 0; ok && u < spec.users; ++u) {
      const double s = out.ssim[u], q = out.psnr[u];
      const double d = out.decoded_fraction[u];
      ok = std::isfinite(s) && s >= -1.0 && s <= 1.0 && std::isfinite(q) &&
           q >= 0.0 && q <= 100.0 && d >= 0.0 && d <= 1.0;
    }
    if (!ok) {
      ++p.failed;
      if (!threw) p.error("frame " + std::to_string(f) + " failed output check");
      continue;
    }
    last_id = out.frame_id;
    if (f < spec.quality_frames) {
      seen.clear();
      for (std::size_t u = 0; u < spec.users; ++u) {
        user_ssim_sum[u] += out.ssim[u];
        ssim_total += out.ssim[u];
        p.digest.add(out.ssim[u]);
        p.digest.add(out.psnr[u]);
        p.digest.add(out.decoded_fraction[u]);
        const std::pair<double, double> o{out.ssim[u], out.psnr[u]};
        if (std::find(seen.begin(), seen.end(), o) == seen.end())
          seen.push_back(o);
      }
      user_frames += spec.users;
      distinct_outcomes += seen.size();
    }
  }
  const double window = static_cast<double>(spec.quality_frames);
  p.ssim_mean = ssim_total / (window * static_cast<double>(spec.users));
  p.ssim_worst_user =
      *std::min_element(user_ssim_sum.begin(), user_ssim_sum.end()) / window;
  const double frames = static_cast<double>(std::max<std::uint64_t>(1, p.timed_frames));
  p.layer.num("users", static_cast<double>(spec.users));
  p.layer.num("quality_redundancy",
              static_cast<double>(user_frames) /
                  static_cast<double>(std::max<std::uint64_t>(1, distinct_outcomes)));
  p.layer.num("cpu_ms_per_frame", 1e3 * (cpu_seconds() - cpu0) / frames);
  return p;
}

// --- Serve workload --------------------------------------------------------

/// The source blocks FountainSource derives from its seed: one per unit,
/// each followed by the unit's block seed (serve/source.cpp).
struct SourceBlocks {
  std::vector<std::vector<std::uint8_t>> block;
  std::vector<std::uint64_t> block_seed;
};

SourceBlocks expected_blocks(const ServeSpec& s, std::uint64_t seed) {
  SourceBlocks out;
  Rng rng(seed);
  for (std::uint16_t u = 0; u < s.units; ++u) {
    std::vector<std::uint8_t> b(static_cast<std::size_t>(s.k) * s.symbol_bytes);
    for (std::size_t i = 0; i < b.size(); i += 8) {
      const std::uint64_t v = rng.next();
      for (std::size_t j = 0; j < 8 && i + j < b.size(); ++j)
        b[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
    out.block.push_back(std::move(b));
    out.block_seed.push_back(rng.next());
  }
  return out;
}

struct ServeRoom {
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<std::unique_ptr<serve::Client>> clients;

  ~ServeRoom() { close(); }
  void close() {
    for (auto& c : clients) c->unsubscribe_all();
    clients.clear();
    if (daemon) daemon->stop();
    daemon.reset();
  }
};

/// Starts the daemon and registers the subscribers. The daemon has one
/// worker, and the publishing thread drains every client socket: two busy
/// threads leave two of nproc's four vCPUs free for other tenants' bursts.
/// Two workers with a receive thread each keep all four busy during every
/// fan-out, and on a busy host that moves the delivery median by more than
/// a quarter between runs.
void open_room(const ServeSpec& s, std::uint64_t seed, ServeRoom& room) {
  serve::DaemonConfig cfg;
  cfg.status = false;
  cfg.workers = 1;
  cfg.pool_slots = 1024;  // 16 publish-ring entries x 64 symbols
  cfg.source.symbol_bytes = s.symbol_bytes;
  cfg.source.seed = seed;
  for (std::uint16_t u = 0; u < s.units; ++u)
    cfg.source.layers.push_back({u, 0, s.k, s.symbols});
  cfg.worker.max_subscribers = s.subs * 4;
  cfg.worker.heartbeat_timeout_s = 600.0;  // liveness is not under test
  room.daemon = std::make_unique<serve::Daemon>(cfg);
  room.daemon->start();

  const std::size_t subs_per_socket = s.subs / s.sockets;
  for (std::size_t i = 0; i < s.sockets; ++i) {
    serve::Client::Options o;
    o.port = room.daemon->port();
    o.n_subs = subs_per_socket;
    o.first_sub_id = 1 + i * subs_per_socket;
    o.rcvbuf_bytes = 8 << 20;
    room.clients.push_back(std::make_unique<serve::Client>(o));
    const std::size_t want = (i + 1) * subs_per_socket;
    int tries = 0;
    for (; room.daemon->subscribers() != want && tries < 4000; ++tries) {
      if (tries % 200 == 0) room.clients.back()->subscribe_all();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (tries == 4000) throw std::runtime_error("serve: subscribe timed out");
  }
}

/// One client socket's receive side: per-pair symbol counts and delivery
/// times for its subscribers, plus the decode probe on its first
/// subscriber.
struct Receiver {
  const ServeSpec* spec = nullptr;
  const SourceBlocks* src = nullptr;
  const std::vector<video::Plane>* pictures = nullptr;
  const std::vector<double>* due_s = nullptr;
  const std::vector<std::int64_t>* slot_of_id = nullptr;
  Clock::time_point origin{};
  serve::Client* client = nullptr;
  std::size_t n_frames = 0;
  std::vector<std::uint16_t> got;    ///< [frame id][sub] symbols received
  std::vector<double> done_ms;       ///< [frame id][sub] delivery, -1 = not yet
  std::vector<std::uint8_t> bad;     ///< [frame id][sub] undecodable
  std::uint64_t complete_pairs = 0;
  std::uint64_t anomalies = 0;
  // Decode probe (the socket's first subscriber).
  std::vector<fec::FountainDecoder> dec;
  fec::Symbol sym;
  fec::DecodeWorkspace ws;
  std::vector<std::uint8_t> decoded;
  /// Per unit: the last decoded block folded into unit_digest. A decode
  /// that differs from it is folded in too, so a run whose decodes all
  /// reproduce the source digests exactly the source blocks.
  std::vector<std::vector<std::uint8_t>> folded;
  std::vector<Digest> unit_digest;
  video::Plane picture;
  std::uint64_t decodes = 0, decode_ns = 0;
  double ssim_sum = 0.0;

  void attach(serve::Client& c) {
    client = &c;
    const std::size_t subs = c.options().n_subs;
    got.assign(n_frames * subs, 0);
    done_ms.assign(n_frames * subs, -1.0);
    bad.assign(n_frames * subs, 0);
    for (std::uint16_t u = 0; u < spec->units; ++u)
      dec.emplace_back(spec->k, spec->symbol_bytes,
                       static_cast<std::size_t>(spec->k) * spec->symbol_bytes,
                       src->block_seed[u]);
    folded.assign(spec->units, {});
    unit_digest.assign(spec->units, Digest{});
    picture = (*pictures)[0];
    c.on_packet = [this](const serve::wire::DataPacket& pkt) { on_packet(pkt); };
  }

  void on_packet(const serve::wire::DataPacket& pkt) {
    const auto& h = pkt.header;
    const std::uint16_t frame_symbols = spec->units * spec->symbols;
    const std::uint64_t rel = pkt.sub_id - client->options().first_sub_id;
    if (h.frame_id >= n_frames || h.layer >= spec->units || h.k != spec->k ||
        h.n_frame_symbols != frame_symbols ||
        h.symbol_bytes != spec->symbol_bytes ||
        h.block_seed != src->block_seed[h.layer]) {
      ++anomalies;
      return;
    }
    const std::int64_t slot = (*slot_of_id)[h.frame_id];
    if (slot < 0) {
      ++anomalies;
      return;
    }
    const std::size_t pair =
        h.frame_id * client->options().n_subs + static_cast<std::size_t>(rel);
    if (++got[pair] == frame_symbols) {
      done_ms[pair] = 1e3 * (seconds_since(origin) -
                             (*due_s)[static_cast<std::size_t>(slot)]);
      ++complete_pairs;
    } else if (got[pair] > frame_symbols) {
      ++anomalies;
    }
    if (rel != 0) return;
    static obs::Stage& st_decode = obs::stage("bench.fountain_decode");
    const auto d0 = Clock::now();
    bool complete = false, exact = false;
    {
      obs::StageSpan span(st_decode);
      fec::FountainDecoder& d = dec[h.layer];
      sym.esi = h.esi;
      sym.data.assign(pkt.payload, pkt.payload + pkt.payload_size);
      d.add_symbol(sym);
      if (d.can_decode()) {
        complete = true;
        if (!d.decode_into(decoded, ws)) decoded.clear();
        exact = decoded == src->block[h.layer];
        d.reset(spec->k, spec->symbol_bytes,
                static_cast<std::size_t>(spec->k) * spec->symbol_bytes,
                src->block_seed[h.layer]);
      }
    }
    decode_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - d0)
            .count());
    if (!complete) return;
    ++decodes;
    if (decoded != folded[h.layer]) {
      unit_digest[h.layer].add(decoded.data(), decoded.size());
      folded[h.layer] = decoded;
    }
    // SSIM of the picture this receiver reconstructed against the source;
    // a bit-exact decode is the source picture itself (SSIM 1).
    if (exact) {
      ssim_sum += 1.0;
      return;
    }
    bad[pair] = 1;
    std::fill(picture.pix.begin(), picture.pix.end(), 0);
    std::copy_n(decoded.begin(), std::min(decoded.size(), picture.pix.size()),
                picture.pix.begin());
    ssim_sum += quality::ssim((*pictures)[h.layer], picture);
  }
};

Pass run_serve(const ServeSpec& s, std::uint64_t seed, double seconds,
               int setup_reps) {
  Pass p;
  ServeRoom room;
  for (int rep = 0; rep < setup_reps; ++rep) {
    room.close();
    const auto t0 = Clock::now();
    open_room(s, seed, room);
    p.setup_s.push_back(seconds_since(t0));
  }
  p.session_s = p.setup_s;

  const SourceBlocks src = expected_blocks(s, seed);
  // A unit's k x 1500 B source block viewed as a 400-wide 8-bit picture.
  std::vector<video::Plane> pictures;
  for (const auto& b : src.block) {
    pictures.emplace_back(400, static_cast<int>(b.size() / 400));
    std::copy(b.begin(), b.end(), pictures.back().pix.begin());
  }
  const std::size_t n_frames =
      static_cast<std::size_t>(s.warmup) +
      static_cast<std::size_t>(std::ceil(seconds * s.fps));
  std::vector<double> due_s(n_frames, 0.0);
  std::vector<std::int64_t> slot_of_id(n_frames, -1);
  const auto origin = Clock::now();
  const double start = 0.02;
  for (std::size_t f = 0; f < n_frames; ++f)
    due_s[f] = start + static_cast<double>(f) / s.fps;

  std::vector<std::unique_ptr<Receiver>> rx;
  for (auto& c : room.clients) {
    auto r = std::make_unique<Receiver>();
    r->spec = &s;
    r->src = &src;
    r->pictures = &pictures;
    r->due_s = &due_s;
    r->slot_of_id = &slot_of_id;
    r->origin = origin;
    r->n_frames = n_frames;
    r->attach(*c);
    rx.push_back(std::move(r));
  }

  static obs::Stage& st_drain = obs::stage("bench.drain");
  // This thread drains every socket between publishes, summing its time
  // in Client::drain.
  std::vector<pollfd> fds;
  for (const auto& r : rx) fds.push_back(pollfd{r->client->fd(), POLLIN, 0});
  double drain_ms = 0.0;
  auto drain = [&](int timeout_ms) {
    poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    const auto d0 = Clock::now();
    {
      obs::StageSpan span(st_drain);
      for (auto& r : rx) r->client->drain();
    }
    drain_ms += ms_between(d0, Clock::now());
  };

  static obs::Stage& st_publish = obs::stage("bench.publish_one");
  std::vector<double> late_ms, fanout_ms, publish_at(n_frames, 0.0);
  std::vector<std::size_t> awaiting_fanout;
  std::vector<std::uint8_t> published(n_frames, 0);
  double pool_free_min = static_cast<double>(room.daemon->pool().size());
  std::uint32_t next_id = 0;
  double cpu0 = 0.0;
  auto check_fanout = [&] {
    if (awaiting_fanout.empty()) return;
    for (std::size_t w = 0; w < room.daemon->n_workers(); ++w)
      if (room.daemon->worker(w).backlog() != 0) return;
    const double now = seconds_since(origin);
    for (std::size_t slot : awaiting_fanout)
      fanout_ms.push_back(1e3 * (now - publish_at[slot]));
    awaiting_fanout.clear();
  };

  std::size_t next = 0;
  while (next < n_frames) {
    if (seconds_since(origin) >= due_s[next]) {
      if (next == static_cast<std::size_t>(s.warmup)) {
        if (obs::enabled()) obs::MetricsRegistry::global().reset_values();
        p.timed_from_us = 1e-3 * static_cast<double>(obs::now_ns());
        cpu0 = cpu_seconds();
        drain_ms = 0.0;
        fanout_ms.clear();
      }
      const std::uint64_t before = room.daemon->frames_published();
      const auto t0 = Clock::now();
      bool ok = false;
      {
        obs::StageSpan span(st_publish);
        ok = room.daemon->publish_one();
      }
      const auto t1 = Clock::now();
      publish_at[next] = std::chrono::duration<double>(t1 - origin).count();
      if (room.daemon->frames_published() != before) {
        slot_of_id[next_id++] = static_cast<std::int64_t>(next);
        published[next] = ok ? 1 : 0;
      }
      if (next >= static_cast<std::size_t>(s.warmup)) {
        p.frame_ms.push_back(ms_between(t0, t1));
        late_ms.push_back(
            1e3 * (std::chrono::duration<double>(t0 - origin).count() - due_s[next]));
      }
      if (ok) awaiting_fanout.push_back(next);
      pool_free_min = std::min(
          pool_free_min, static_cast<double>(room.daemon->pool().free_slots()));
      ++next;
      continue;
    }
    const double wait_ms = 1e3 * (due_s[next] - seconds_since(origin));
    drain(std::clamp(static_cast<int>(wait_ms), 0, 2));
    check_fanout();
  }
  // Tail: the last frames get the same give-up horizon as the others.
  const std::uint64_t want = static_cast<std::uint64_t>(next_id) * s.subs;
  auto complete = [&] {
    std::uint64_t n = 0;
    for (const auto& r : rx) n += r->complete_pairs;
    return n;
  };
  while (seconds_since(origin) < due_s[n_frames - 1] + s.give_up_s &&
         !(awaiting_fanout.empty() && complete() == want)) {
    drain(2);
    check_fanout();
  }
  const double cpu_s = cpu_seconds() - cpu0;

  // Account every timed (frame, subscriber) pair.
  std::vector<std::int64_t> id_of_slot(n_frames, -1);
  for (std::size_t id = 0; id < next_id; ++id)
    id_of_slot[static_cast<std::size_t>(slot_of_id[id])] =
        static_cast<std::int64_t>(id);
  for (std::size_t t = static_cast<std::size_t>(s.warmup); t < n_frames; ++t) {
    ++p.timed_frames;
    p.attempted += s.subs;
    const std::int64_t id = id_of_slot[t];
    if (id < 0 || !published[t]) {
      p.failed += s.subs;
      continue;
    }
    for (const auto& r : rx) {
      const std::size_t n = r->client->options().n_subs;
      for (std::size_t u = 0; u < n; ++u) {
        const std::size_t pair = static_cast<std::size_t>(id) * n + u;
        const double d = r->done_ms[pair];
        if (d < 0.0 || d > 1e3 * s.give_up_s || r->bad[pair]) {
          ++p.failed;
          continue;
        }
        p.deliver_ms.push_back(d);
      }
    }
  }

  std::uint64_t anomalies = 0, parse_errors = 0, bad_pairs = 0, decodes = 0,
                decode_ns = 0;
  double ssim_sum = 0.0;
  p.ssim_worst_user = 1.0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const Receiver& r = *rx[i];
    anomalies += r.anomalies;
    parse_errors += r.client->parse_errors();
    for (std::uint8_t b : r.bad) bad_pairs += b;
    decodes += r.decodes;
    decode_ns += r.decode_ns;
    ssim_sum += r.ssim_sum;
    if (r.decodes == 0) {
      p.error("probe " + std::to_string(i) + " decoded nothing");
      p.ssim_worst_user = 0.0;
      continue;
    }
    p.ssim_worst_user = std::min(p.ssim_worst_user,
                                 r.ssim_sum / static_cast<double>(r.decodes));
  }
  p.ssim_mean = decodes > 0 ? ssim_sum / static_cast<double>(decodes) : 0.0;
  if (bad_pairs > 0)
    p.error(std::to_string(bad_pairs) + " fountain decodes differ from the source");
  if (anomalies > 0)
    p.error(std::to_string(anomalies) + " packets with unexpected headers");
  if (parse_errors > 0)
    p.error(std::to_string(parse_errors) + " client parse errors");
  // What the probes decoded, per probe in unit order.
  for (const auto& r : rx)
    for (const Digest& d : r->unit_digest) p.digest.add(&d.h, sizeof d.h);

  const double frames = static_cast<double>(std::max<std::uint64_t>(1, p.timed_frames));
  p.layer.num("users", static_cast<double>(s.subs));
  p.layer.num("fanout_ms_p50", quantile(fanout_ms, 0.5));
  p.layer.num("fanout_ms_p90", quantile(fanout_ms, 0.9));
  p.layer.num("gen_late_ms_p99", quantile(late_ms, 0.99));
  p.layer.num("drain_ms_per_frame", drain_ms / frames);
  p.layer.num("cpu_ms_per_frame", 1e3 * cpu_s / frames);
  p.layer.num("pool_free_min", pool_free_min);
  p.layer.num("decode_ms_per_unit",
              decodes > 0 ? 1e-6 * static_cast<double>(decode_ns) /
                                static_cast<double>(decodes)
                          : 0.0);
  p.layer.num("decode_MBps",
              decode_ns > 0 ? static_cast<double>(decodes) *
                                  static_cast<double>(s.k * s.symbol_bytes) /
                                  (1e-3 * static_cast<double>(decode_ns))
                            : 0.0);
  for (auto& c : room.clients) c->on_packet = nullptr;
  room.close();
  return p;
}

Pass run_pass(const WorkloadSpec& w, std::uint64_t seed, double seconds,
              int setup_reps, const std::string& model_path) {
  if (w.serve) return run_serve(w.net, seed, seconds, setup_reps);
  return run_emulator(w.emu, seed, seconds, setup_reps, model_path);
}

std::string pass_json(const Pass& p) {
  JsonObject o;
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return s + "]";
  };
  o.raw("setup_s", list(p.setup_s));
  o.raw("model_s", list(p.model_s));
  o.raw("contexts_s", list(p.contexts_s));
  o.raw("trace_s", list(p.trace_s));
  o.raw("session_s", list(p.session_s));
  o.num("frame_ms_p50", sliced_quantile(p.frame_ms, 0.5));
  o.num("frame_ms_p90", sliced_quantile(p.frame_ms, 0.9));
  o.num("deliver_ms_p50", sliced_quantile(p.deliver_ms, 0.5));
  o.num("deliver_ms_p90", sliced_quantile(p.deliver_ms, 0.9));
  o.num("frame_samples", static_cast<double>(p.frame_ms.size()));
  o.num("deliver_samples", static_cast<double>(p.deliver_ms.size()));
  o.num("timed_frames", static_cast<double>(p.timed_frames));
  o.num("timed_from_us", p.timed_from_us);
  o.num("attempted", static_cast<double>(p.attempted));
  o.num("failed", static_cast<double>(p.failed));
  o.num("ssim_mean", p.ssim_mean);
  o.num("ssim_worst_user", p.ssim_worst_user);
  o.str("digest", p.digest.hex());
  std::string errs = "[";
  for (std::size_t i = 0; i < p.errors.size(); ++i) {
    if (i > 0) errs += ",";
    errs += quote(p.errors[i]);
  }
  o.raw("errors", errs + "]");
  o.raw("layer", p.layer.done());
  return o.done();
}

std::string counters_json() {
  JsonObject o;
  for (const auto& [name, v] : obs::MetricsRegistry::global().counter_values())
    o.num(name, static_cast<double>(v));
  return o.done();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const std::string mode = args.get("mode", std::string("plain"));
    const std::string workload = args.get("workload", std::string(""));
    const int seed = args.get("seed", 1);
    const double seconds = args.get("seconds", 10.0);
    const std::string model_path =
        args.get("model", std::string("w4k_quality_model.cache"));
    const std::string trace_out = args.get("trace-out", std::string(""));
    const int threads = args.get("threads", 0);
    const bool tiny = args.get("tiny", false);
    const auto unknown = args.unqueried();
    if (!unknown.empty()) {
      std::fprintf(stderr, "unknown argument --%s\n", unknown.front().c_str());
      return 2;
    }
    if (seed < 0 || !(seconds > 0.0) || threads < 0) {
      std::fprintf(stderr, "need --seed >= 0, --seconds > 0, --threads >= 0\n");
      return 2;
    }

    JsonObject out;
    out.str("workload", workload);
    out.num("seed", seed);
    out.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    out.str("gf256_tier", gf256::tier_name(gf256::active_tier()));

    if (mode == "train") {
      const auto t0 = Clock::now();
      load_model(model_path, true);
      out.num("model_train_s", seconds_since(t0));
      std::printf("RESULT %s\n", out.done().c_str());
      return 0;
    }
    const WorkloadSpec spec = workload_spec(workload, tiny);
    // The workload's pool size, whatever W4K_THREADS says; --threads
    // overrides it (selfcheck's single-threaded digest run).
    ThreadPool::reset_shared(threads > 0 ? static_cast<std::size_t>(threads)
                                         : spec.pool_threads);
    const auto useed = static_cast<std::uint64_t>(seed);
    if (mode == "plain") {
      const Pass p = run_pass(spec, useed, seconds, spec.setup_reps, model_path);
      out.raw("plain", pass_json(p));
      out.num("peak_rss_mb", peak_rss_mb());
      out.num("pool_threads", static_cast<double>(ThreadPool::shared().size()));
      std::printf("RESULT %s\n", out.done().c_str());
      return p.errors.empty() ? 0 : 1;
    }
    if (mode != "traced") throw std::invalid_argument("unknown mode " + mode);
    // Untraced half, then the same seed traced; the digests must agree.
    const Pass a = run_pass(spec, useed, seconds / 2, 1, model_path);
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    obs::MetricsRegistry::global().reset_values();
    obs::clear_trace();
    obs::reset_trace_epoch();
    const Pass b = run_pass(spec, useed, seconds / 2, 1, model_path);
    const std::string counters = counters_json();
    obs::set_enabled(false);
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      obs::write_chrome_trace(os);
      if (!os) throw std::runtime_error("cannot write " + trace_out);
    }
    out.raw("plain", pass_json(a));
    out.raw("traced", pass_json(b));
    out.raw("counters", counters);
    out.num("peak_rss_mb", peak_rss_mb());
    out.num("pool_threads", static_cast<double>(ThreadPool::shared().size()));
    std::printf("RESULT %s\n", out.done().c_str());
    const bool ok = a.errors.empty() && b.errors.empty() &&
                    a.digest.h == b.digest.h;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "w4kbench: %s\n", e.what());
    return 1;
  }
}
