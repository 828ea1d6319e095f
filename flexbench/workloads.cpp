#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "cs/defects.hpp"
#include "cs/metrics.hpp"
#include "data/thermal.hpp"
#include "runtime/shard.hpp"
#include "solvers/fista.hpp"
#include "trace.hpp"

namespace flexbench {
namespace {

using namespace flexcs;

// FISTA at the settings of the repository's runtime benches. The runtime
// needs FISTA: its convergence flag is what separates clean frames from
// corrupted ones in the ladder's acceptance test.
constexpr int kFistaIterations = 400;
constexpr double kFistaTol = 1e-6;

// stream_clean offers frames at this fixed absolute rate, about 60 % of the
// saturated capacity of a 2-worker server on 32x32 thermal frames measured
// once at the start of the benchmark's history. It is never rescaled, so a
// faster decoder shows as lower latency and fewer failures, not more load.
constexpr double kStreamRateFps = 5.0;
// The open-loop generator may wake at most this late (in frame periods)
// before the run is declared invalid.
constexpr double kMaxGeneratorLatePeriods = 1.0;

constexpr std::size_t kFrameSide = 32;   // single-frame workloads
constexpr std::size_t kSceneSide = 64;   // tiled workloads
constexpr std::size_t kTileSide = 16;
constexpr std::size_t kPoolFrames = 64;  // distinct ladder_defects frames
constexpr std::size_t kScenePool = 512;  // tiles_gated scene length (cycled)
// tiles_gated changes its background every this many frames. The default
// ladder escalates a few percent of tile decodes to the resample rung at 17x
// the cost, and those rare events dominate the time of a mostly skipped
// frame; every background change wakes all 16 tiles, which puts enough
// decodes into a run for its time to be steady from seed to seed.
constexpr std::size_t kGatedSegment = 4;
constexpr std::size_t kActiveTiles = 2;  // of the 16 tiles of tiles_gated
constexpr std::size_t kFleetPool = 64;   // distinct tiles_fleet frames (cycled)
constexpr double kStuckRate = 0.10;      // ladder_defects panel map
// tiles_fleet: the forked worker process kills itself when it takes its
// 24th tile, and so does every respawned one (a fixed low crash rate).
constexpr std::int32_t kFleetKillAfterTiles = 23;
// tiles_fleet frames checked against the workers = 0 reference, at most.
// The first crash falls well inside them.
constexpr std::size_t kMaxReferenceFrames = 8;
// Submission ids of warm-up frames sit far above any measured frame id.
constexpr std::uint64_t kWarmupId = std::uint64_t{1} << 40;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

std::uint64_t digest(const la::Matrix& m) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the raw bytes
  const auto* p = reinterpret_cast<const unsigned char*>(m.data());
  for (std::size_t i = 0; i < m.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double median(std::vector<double> v) {
  return runtime::latency_percentile(std::move(v), 0.5);
}

std::shared_ptr<const solvers::SparseSolver> make_solver(bool traced) {
  solvers::FistaOptions fopts;
  fopts.max_iterations = kFistaIterations;
  fopts.tol = kFistaTol;
  auto fista = std::make_shared<solvers::FistaSolver>(fopts);
  if (!traced) return fista;
  return std::make_shared<TimedSolver>(std::move(fista));
}

std::vector<la::Matrix> thermal_frames(std::size_t side, std::size_t n,
                                       std::uint64_t seed) {
  data::ThermalOptions topts;
  topts.rows = topts.cols = side;
  const data::ThermalHandGenerator gen(topts);
  Rng rng(seed);
  std::vector<la::Matrix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.sample(rng).values);
  return out;
}

// The bench_activity scene family: a thermal background in which each of
// kActiveTiles tiles carries a hot blob orbiting the tile centre, one step
// per frame, while every other tile stays bit-identical frame to frame. The
// scene runs in segments of kGatedSegment frames, each with its own
// background and its own active tiles.
std::vector<la::Matrix> moving_scene(const runtime::TileGrid& grid,
                                     std::uint64_t seed) {
  data::ThermalOptions topts;
  topts.rows = grid.rows;
  topts.cols = grid.cols;
  const data::ThermalHandGenerator gen(topts);
  Rng rng(mix(seed, 1));
  const double radius = static_cast<double>(grid.tile_rows) / 4.0;
  const double sigma = static_cast<double>(grid.tile_rows) / 6.0;
  la::Matrix base;
  std::vector<std::size_t> tiles(grid.tiles());
  std::vector<la::Matrix> scene;
  scene.reserve(kScenePool);
  for (std::size_t f = 0; f < kScenePool; ++f) {
    if (f % kGatedSegment == 0) {
      base = gen.sample(rng).values;
      for (std::size_t t = 0; t < tiles.size(); ++t) tiles[t] = t;
      for (std::size_t t = tiles.size() - 1; t > 0; --t)
        std::swap(tiles[t], tiles[rng.uniform_index(t + 1)]);
    }
    la::Matrix frame = base;
    for (std::size_t k = 0; k < kActiveTiles; ++k) {
      const std::size_t t = tiles[k];
      const std::size_t r0 = grid.tile_row(t) * grid.tile_rows;
      const std::size_t c0 = grid.tile_col(t) * grid.tile_cols;
      const double phase =
          0.9 * static_cast<double>(f) + 0.7 * static_cast<double>(t);
      const double ci = static_cast<double>(grid.tile_rows) / 2.0 +
                        radius * std::cos(phase);
      const double cj = static_cast<double>(grid.tile_cols) / 2.0 +
                        radius * std::sin(phase);
      for (std::size_t i = 0; i < grid.tile_rows; ++i)
        for (std::size_t j = 0; j < grid.tile_cols; ++j) {
          const double di = static_cast<double>(i) - ci;
          const double dj = static_cast<double>(j) - cj;
          const double bump =
              0.6 * std::exp(-(di * di + dj * dj) / (2.0 * sigma * sigma));
          double& px = frame(r0 + i, c0 + j);
          px = std::min(1.0, px + bump);
        }
    }
    scene.push_back(std::move(frame));
  }
  return scene;
}

// Good frames per second of wall time.
double goodput(const std::vector<FrameRecord>& frames, double wall_s) {
  std::size_t good = 0;
  for (const FrameRecord& r : frames) good += r.good ? 1 : 0;
  return wall_s > 0.0 ? static_cast<double>(good) / wall_s : 0.0;
}

// The warm-up frame of every set-up: a blank panel at ambient temperature.
// It is the same for every seed and decodes at the first rung, so setup_s
// times construction and lazy initialisation, not the ladder's luck on one
// input.
la::Matrix warmup_frame(std::size_t side) {
  return la::Matrix(side, side, data::ThermalOptions{}.ambient_temp);
}

// Sets the system up `setups` times and keeps the last instance; each
// set-up is construction plus one untimed warm-up frame.
template <typename T, typename Build>
std::unique_ptr<T> set_up(int setups, RunResult& out, Build build) {
  std::vector<double> times;
  std::unique_ptr<T> sys;
  for (int i = 0; i < std::max(1, setups); ++i) {
    sys.reset();
    const Clock::time_point t0 = Clock::now();
    sys = build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  out.setup_s = median(times);
  return sys;
}

// ---------------------------------------------------------------------------
// StreamServer workloads
// ---------------------------------------------------------------------------

// Collects results off a StreamServer as they complete and stamps each with
// the time the client saw it. Polls, because a blocking wait on the server
// has no way to be woken for shutdown.
class Collector {
 public:
  struct Item {
    runtime::StreamResult result;
    Clock::time_point seen{};
  };

  explicit Collector(runtime::StreamServer& server)
      : server_(server), thread_([this] { loop(); }) {}
  ~Collector() { stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Waits for the result of submission `id`; false on timeout.
  bool wait(std::uint64_t id, Item& out, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ok = cv_.wait_for(
        lock, std::chrono::duration<double>(timeout_s),
        [&] { return items_.count(id) > 0; });
    if (!ok) return false;
    out = std::move(items_[id]);
    items_.erase(id);
    return true;
  }

  // Waits until `n` results are held; false on timeout.
  bool wait_count(std::size_t n, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return items_.size() >= n; });
  }

  std::map<std::uint64_t, Item> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(items_);
  }

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    while (!stop_.load()) {
      std::vector<runtime::StreamResult> rs = server_.drain_results();
      if (rs.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& r : rs) {
          const std::uint64_t id = r.stream_id;
          items_[id] = Item{std::move(r), now};
        }
      }
      cv_.notify_all();
    }
  }

  runtime::StreamServer& server_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Item> items_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};

runtime::StreamOptions stream_options(bool traced) {
  runtime::StreamOptions opts;
  opts.workers = 2;
  opts.solver = make_solver(traced);
  // Each submission carries a unique id (its frame number) and seeds its own
  // decode from it, so every frame draws a fresh sampling pattern as it does
  // under the default per-worker RNG, but the pixels no longer depend on
  // which worker took the frame. This is what lets a traced run and a
  // second run of one seed be compared bit for bit.
  opts.per_submission_seeding = true;
  return opts;
}

std::unique_ptr<runtime::StreamServer> stream_server(
    const runtime::StreamOptions& opts) {
  auto server =
      std::make_unique<runtime::StreamServer>(kFrameSide, kFrameSide, opts);
  server->submit(kWarmupId, warmup_frame(kFrameSide));
  server->wait_for_completed(1);
  server->drain_results();
  return server;
}

void fill_single(FrameRecord& rec, const runtime::StreamResult& r,
                 const la::Matrix& truth) {
  rec.rung = static_cast<int>(r.report.strategy);
  rec.accepted = r.report.accepted;
  rec.deadline_expired = r.report.deadline_expired;
  rec.degrade_level = r.degrade_level;
  rec.decode_calls = r.report.decode_calls;
  rec.queue_s = r.queue_seconds;
  rec.decode_s = r.report.decode_seconds;
  rec.rmse = cs::rmse(r.frame, truth);
  rec.digest = digest(r.frame);
  // The RPCA rung filters over a window of the frames its worker saw
  // before, which depends on how frames were spread over the workers.
  rec.timing_dependent = r.report.strategy == runtime::Strategy::kRpcaWindow;
}

// Open loop: one generator interleaves two panels at a fixed absolute rate
// into a 2-worker server under Degrade, with a two-period frame deadline.
RunResult run_stream_clean(const RunSpec& spec) {
  RunResult out;
  out.workload = spec.workload;
  out.workers = 2;
  out.tail_q = 0.9;
  const double period = 1.0 / kStreamRateFps;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(spec.seconds * kStreamRateFps)));
  const std::vector<la::Matrix> truth =
      thermal_frames(kFrameSide, n, mix(spec.seed, 10));

  runtime::StreamOptions opts = stream_options(spec.traced);
  opts.policy = runtime::BackpressurePolicy::kDegrade;
  opts.frame_deadline_seconds = 2.0 * period;
  auto server = set_up<runtime::StreamServer>(
      spec.setups, out, [&] { return stream_server(opts); });
  Recorder::instance().reset();

  std::vector<Clock::time_point> due(n);
  std::vector<double> late(n);
  std::vector<double> submit_delay(n);
  {
    Collector collector(*server);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    Clock::time_point free_at = start;  // when the generator was last free
    for (std::size_t k = 0; k < n; ++k) {
      due[k] = after(start, period * static_cast<double>(k));
      la::Matrix frame = truth[k];
      std::this_thread::sleep_until(due[k]);
      const Clock::time_point wake = Clock::now();
      late[k] = seconds_between(std::max(due[k], free_at), wake);
      submit_delay[k] = seconds_between(due[k], wake);
      server->submit(k, std::move(frame));
      free_at = Clock::now();
    }
    if (!collector.wait_count(n, 60.0))
      out.failures.push_back("stream_clean: frames never completed");
    collector.stop();
    std::map<std::uint64_t, Collector::Item> items = collector.take();
    Clock::time_point last = start;
    for (std::size_t k = 0; k < n; ++k) {
      FrameRecord rec;
      rec.id = k;
      rec.late_s = late[k];
      rec.submit_s = submit_delay[k];
      auto it = items.find(k);
      if (it != items.end()) {
        rec.completed = true;
        rec.latency_s = seconds_between(due[k], it->second.seen);
        fill_single(rec, it->second.result, truth[k]);
        rec.good = rec.latency_s <= opts.frame_deadline_seconds &&
                   rec.accepted && !rec.deadline_expired;
        // Degrade cheapens frames by queue depth and cuts solves at the
        // deadline, both of which depend on timing.
        rec.timing_dependent = rec.timing_dependent || rec.degrade_level > 0 ||
                               rec.deadline_expired;
        last = std::max(last, it->second.seen);
      }
      out.frames.push_back(rec);
    }
    out.wall_s = seconds_between(start, last);
  }
  out.goodput_fps = goodput(out.frames, out.wall_s);
  const double max_late = *std::max_element(late.begin(), late.end());
  if (max_late > kMaxGeneratorLatePeriods * period)
    out.failures.push_back("stream_clean: generator ran " +
                           std::to_string(max_late * 1e3) +
                           " ms late; the open-loop schedule did not hold");
  out.queue_high_water = server->health().queue_high_water;
  return out;
}

// Closed loop: two panels each wait for their own frame; 2 workers, Block,
// no deadline; every frame passes through one fixed map of stuck pixels.
RunResult run_ladder_defects(const RunSpec& spec) {
  RunResult out;
  out.workload = spec.workload;
  out.workers = 2;
  out.tail_q = 0.75;
  const std::vector<la::Matrix> truth =
      thermal_frames(kFrameSide, kPoolFrames, mix(spec.seed, 20));
  // Each panel has its own fixed map: 10 % of its pixels stuck, each at 0
  // or 1.
  Rng map_rng(mix(spec.seed, 21));
  std::vector<std::vector<bool>> stuck;
  std::vector<std::vector<double>> stuck_value;
  for (std::size_t p = 0; p < 2; ++p) {
    stuck.push_back(
        cs::random_defect_mask(kFrameSide, kFrameSide, kStuckRate, map_rng));
    stuck_value.emplace_back(stuck.back().size());
    for (double& v : stuck_value.back()) v = map_rng.bernoulli(0.5) ? 1.0 : 0.0;
  }
  auto corrupt = [&](const la::Matrix& clean, std::size_t panel) {
    la::Matrix m = clean;
    for (std::size_t i = 0; i < m.size(); ++i)
      if (stuck[panel][i]) m.data()[i] = stuck_value[panel][i];
    return m;
  };

  runtime::StreamOptions opts = stream_options(spec.traced);
  auto server = set_up<runtime::StreamServer>(
      spec.setups, out, [&] { return stream_server(opts); });
  Recorder::instance().reset();

  std::vector<std::vector<FrameRecord>> per_panel(2);
  std::vector<Clock::time_point> last(2);
  std::atomic<bool> lost{false};
  std::mutex error_mu;
  std::string error;  // first exception a client thread hit
  const Clock::time_point start = Clock::now();
  {
    Collector collector(*server);
    const Clock::time_point end = after(start, spec.seconds);
    // A client submits no new frame once the window has closed, but the
    // frame it has in flight runs to completion and counts: each client's
    // throughput is its good frames over the time it took to finish them,
    // which is not biased towards frames short enough to fit the window.
    auto client_loop = [&](std::size_t panel) {
      last[panel] = start;
      for (std::uint64_t k = 0; Clock::now() < end; ++k) {
        const std::uint64_t id = 2 * k + panel;
        const la::Matrix& clean = truth[id % kPoolFrames];
        la::Matrix frame = corrupt(clean, panel);
        const Clock::time_point sent = Clock::now();
        server->submit(id, std::move(frame));
        Collector::Item item;
        if (!collector.wait(id, item, 120.0)) {
          lost.store(true);
          return;
        }
        FrameRecord rec;
        rec.id = id;
        rec.completed = true;
        rec.latency_s = seconds_between(sent, item.seen);
        fill_single(rec, item.result, clean);
        rec.good = rec.accepted;
        per_panel[panel].push_back(rec);
        last[panel] = item.seen;
      }
    };
    auto client = [&](std::size_t panel) {
      try {
        client_loop(panel);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error.empty()) error = e.what();
      }
    };
    std::thread a(client, 0), b(client, 1);
    a.join();
    b.join();
    collector.stop();
  }
  if (lost.load()) out.failures.push_back("ladder_defects: a frame was lost");
  if (!error.empty()) out.failures.push_back("ladder_defects: " + error);
  // The system's throughput is the sum over its closed-loop clients.
  for (std::size_t p = 0; p < 2; ++p) {
    const double span = seconds_between(start, last[p]);
    out.goodput_fps += goodput(per_panel[p], span);
    out.wall_s = std::max(out.wall_s, span);
    out.frames.insert(out.frames.end(), per_panel[p].begin(),
                      per_panel[p].end());
  }
  std::sort(out.frames.begin(), out.frames.end(),
            [](const FrameRecord& x, const FrameRecord& y) {
              return x.id < y.id;
            });
  out.queue_high_water = server->health().queue_high_water;
  return out;
}

// ---------------------------------------------------------------------------
// Tiled workloads
// ---------------------------------------------------------------------------

void fill_tiled(FrameRecord& rec, const la::Matrix& frame,
                const runtime::ShardReport& report, const la::Matrix& truth) {
  rec.completed = true;
  rec.rmse = cs::rmse(frame, truth);
  rec.digest = digest(frame);
  rec.tiles_skipped = report.tiles_skipped;
  rec.tiles_forced = report.tiles_forced;
  rec.scatter_s = report.decode_seconds;
  rec.decode_calls = report.decode_calls;
  for (const runtime::TileReport& t : report.tile_reports) {
    if (t.served_stale) continue;
    ++rec.tiles_decoded;
    rec.tiles_accepted += t.report.accepted ? 1 : 0;
    rec.tiles_remote += t.remote ? 1 : 0;
    rec.tile_dispatches += static_cast<std::size_t>(t.dispatch_attempts);
    rec.tile_s.push_back(t.report.decode_seconds);
    rec.tile_rungs.push_back(static_cast<int>(t.report.strategy));
    rec.timing_dependent = rec.timing_dependent ||
                           t.report.strategy == runtime::Strategy::kRpcaWindow;
  }
  // A tiled frame is good when none of its decoded tiles was rejected.
  rec.good = rec.tiles_accepted == rec.tiles_decoded;
}

// Closed loop, one caller: a 64x64 scene in which 2 of 16 tiles move,
// through a gated ShardedDecoder (16x16 tiles, default halo) on 2 workers.
RunResult run_tiles_gated(const RunSpec& spec) {
  RunResult out;
  out.workload = spec.workload;
  out.workers = 2;
  out.tail_q = 0.9;
  runtime::ShardOptions opts;
  opts.tile_rows = opts.tile_cols = kTileSide;
  opts.stream.workers = 2;
  opts.stream.solver = make_solver(spec.traced);
  opts.gate.enabled = true;
  const runtime::TileGrid grid(kSceneSide, kSceneSide, kTileSide, kTileSide,
                               opts.halo);
  const std::vector<la::Matrix> scene = moving_scene(grid, spec.seed);

  la::Matrix prev;
  auto decoder = set_up<runtime::ShardedDecoder>(spec.setups, out, [&] {
    auto d = std::make_unique<runtime::ShardedDecoder>(kSceneSide, kSceneSide,
                                                       opts);
    prev = d->process(warmup_frame(kSceneSide)).frame;
    return d;
  });
  Recorder::instance().reset();

  bool stale_ok = true;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = after(start, spec.seconds);
  Clock::time_point last = start;
  for (std::uint64_t f = 1; last < end; ++f) {
    const la::Matrix& truth = scene[f % kScenePool];
    const Clock::time_point t0 = Clock::now();
    runtime::ShardFrameResult res = decoder->process(truth);
    last = Clock::now();
    FrameRecord rec;
    rec.id = f;
    rec.latency_s = seconds_between(t0, last);
    fill_tiled(rec, res.frame, res.report, truth);
    // Every tile served stale must be the previous reconstruction's pixels.
    for (std::size_t t = 0; t < grid.tiles(); ++t) {
      if (!res.report.tile_reports[t].served_stale) continue;
      const std::size_t r0 = grid.tile_row(t) * grid.tile_rows;
      const std::size_t c0 = grid.tile_col(t) * grid.tile_cols;
      for (std::size_t i = 0; i < grid.tile_rows; ++i)
        for (std::size_t j = 0; j < grid.tile_cols; ++j)
          if (std::memcmp(&res.frame(r0 + i, c0 + j), &prev(r0 + i, c0 + j),
                          sizeof(double)) != 0)
            stale_ok = false;
    }
    prev = std::move(res.frame);
    out.frames.push_back(rec);
  }
  out.wall_s = seconds_between(start, last);
  out.goodput_fps = goodput(out.frames, out.wall_s);
  if (!stale_ok)
    out.failures.push_back(
        "tiles_gated: a served-stale tile differs from the previous frame");
  out.queue_high_water = decoder->health().queue_high_water;
  return out;
}

runtime::ServiceOptions fleet_options(bool traced) {
  runtime::ServiceOptions opts;
  opts.workers = 1;
  opts.remote_workers = 1;
  opts.solver = make_solver(traced);
  runtime::WorkerFaultInjection kill;
  kill.kill_after_tiles = kFleetKillAfterTiles;
  kill.persist_across_respawn = true;
  opts.fault_injection = {kill};
  // The crash rate is fixed per tile, so a faster decoder crashes more often
  // per second; the respawn budget must not run out inside a run and turn
  // the workload into an in-process one.
  opts.max_respawns = 1 << 20;
  return opts;
}

// Closed loop, one caller: 64x64 thermal frames, every tile changing, through
// a DecodeService of 1 forked and 1 loopback remote worker, the forked one
// killing itself at a fixed rate.
RunResult run_tiles_fleet(const RunSpec& spec) {
  RunResult out;
  out.workload = spec.workload;
  out.workers = 2;
  out.tail_q = 0.75;
  const runtime::ServiceOptions opts = fleet_options(spec.traced);
  // Every frame is a fresh thermal frame, so every tile changes.
  std::vector<la::Matrix> inputs =
      thermal_frames(kSceneSide, kFleetPool, mix(spec.seed, 30));
  inputs.insert(inputs.begin(), warmup_frame(kSceneSide));

  std::vector<la::Matrix> delivered;  // frames checked against workers = 0
  bool checked_redispatch = false;
  auto service = set_up<runtime::DecodeService>(spec.setups, out, [&] {
    auto s = std::make_unique<runtime::DecodeService>(kSceneSide, kSceneSide,
                                                      opts);
    delivered.assign(1, s->process(inputs[0]).frame);
    return s;
  });
  Recorder::instance().reset();
  const runtime::ServiceHealth before = service->health();

  const Clock::time_point start = Clock::now();
  const Clock::time_point end = after(start, spec.seconds);
  Clock::time_point last = start;
  for (std::uint64_t f = 1; last < end; ++f) {
    const la::Matrix& truth = inputs[1 + (f - 1) % kFleetPool];
    const Clock::time_point t0 = Clock::now();
    runtime::ServiceFrameResult res = service->process(truth);
    last = Clock::now();
    FrameRecord rec;
    rec.id = f;
    rec.latency_s = seconds_between(t0, last);
    fill_tiled(rec, res.frame, res.report, truth);
    if (res.dropped) rec.good = false;
    // Check the first frames against the reference, up to and including
    // the first one in which a crashed worker's tile was dispatched again.
    if (!checked_redispatch && delivered.size() < kMaxReferenceFrames) {
      delivered.push_back(res.frame);
      checked_redispatch = rec.tile_dispatches > rec.tiles_decoded;
    }
    out.frames.push_back(rec);
  }
  out.wall_s = seconds_between(start, last);
  out.goodput_fps = goodput(out.frames, out.wall_s);

  runtime::ServiceHealth h = service->health();
  service->close();  // reaps every worker process before RSS is read
  // Supervision counters of the measured window only; frames_lost stays
  // cumulative, since it must be 0 from construction on.
  h.tile_redispatches -= before.tile_redispatches;
  h.tiles_in_process -= before.tiles_in_process;
  h.worker_respawns -= before.worker_respawns;
  h.checksum_rejects -= before.checksum_rejects;
  out.service = h;
  if (h.frames_lost != 0)
    out.failures.push_back("tiles_fleet: " + std::to_string(h.frames_lost) +
                           " frames lost");

  // The same frames through an in-process DecodeService (workers = 0) must
  // give the same pixels: the fleet, its crashes and its remote worker
  // change where tiles decode, never what they decode to.
  runtime::ServiceOptions ref_opts = opts;
  ref_opts.workers = 0;
  ref_opts.remote_workers = 0;
  ref_opts.fault_injection.clear();
  ref_opts.solver = make_solver(false);
  runtime::DecodeService reference(kSceneSide, kSceneSide, ref_opts);
  for (std::size_t f = 0; f < delivered.size(); ++f) {
    const la::Matrix ref = reference.process(inputs[f]).frame;
    if (std::memcmp(ref.data(), delivered[f].data(),
                    ref.size() * sizeof(double)) != 0)
      out.failures.push_back("tiles_fleet: frame " + std::to_string(f) +
                             " differs from the workers=0 reference");
    ++out.reference_frames;
  }
  if (!checked_redispatch && delivered.size() == kMaxReferenceFrames)
    out.failures.push_back(
        "tiles_fleet: no worker crash within the first reference frames");
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "stream_clean", "ladder_defects", "tiles_gated", "tiles_fleet"};
  return names;
}

RunResult run_workload(const RunSpec& spec) {
  if (spec.workload == "stream_clean") return run_stream_clean(spec);
  if (spec.workload == "ladder_defects") return run_ladder_defects(spec);
  if (spec.workload == "tiles_gated") return run_tiles_gated(spec);
  return run_tiles_fleet(spec);
}

}  // namespace flexbench
