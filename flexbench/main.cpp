// flexbench: the flexcs benchmark binary. One run measures one workload for
// --seconds seconds and prints, as its last line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//   flexbench --workload NAME --seed N --seconds S --trace 0|1
//
// A traced run measures the workload twice on the same inputs, untraced and
// then traced (S/2 each), prints a per-layer self-time table, checks that
// both runs delivered bit-identical pixels (and identical ladder outcomes)
// on every frame they have in common, and reports the tracing cost as the
// relative drop in goodput. Any failed output check makes the exit code 1.
// See README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "runtime/pipeline.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using flexbench::FrameRecord;
using flexbench::RunResult;

// Layer self times must add up to the frame wall time within this share of
// it, and no self time may be more negative than this share.
constexpr double kLayerTolerance = 0.05;

double percentile(std::vector<double> v, double q) {
  return flexcs::runtime::latency_percentile(std::move(v), q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::vector<const FrameRecord*> completed(const RunResult& r) {
  std::vector<const FrameRecord*> out;
  for (const FrameRecord& f : r.frames)
    if (f.completed) out.push_back(&f);
  return out;
}

std::size_t good_count(const RunResult& r) {
  std::size_t g = 0;
  for (const FrameRecord& f : r.frames) g += f.good ? 1 : 0;
  return g;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // largest reaped child
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::vector<Metric> end_to_end(const RunResult& r) {
  std::vector<double> lat;
  double rmse = 0.0;
  for (const FrameRecord* f : completed(r)) {
    lat.push_back(f->latency_s * 1e3);
    rmse += f->rmse;
  }
  const double n = static_cast<double>(lat.size());
  return {
      {"goodput_fps", r.goodput_fps, "1/s"},
      {"latency_p50_ms", percentile(lat, 0.5), "ms"},
      {"latency_tail_ms", percentile(lat, r.tail_q), "ms"},
      {"good_frac", ratio(static_cast<double>(good_count(r)), n), "fraction"},
      {"rmse_mean", ratio(rmse, n), "rmse"},
      {"setup_s", r.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

// Totals of the solver and operator spans of one traced run.
struct SpanTotals {
  double calls = 0, iterations = 0, converged = 0, hinted = 0;
  double solve_s = 0, applies = 0, apply_s = 0, dense_applies = 0;
};

SpanTotals span_totals() {
  SpanTotals t;
  for (const flexbench::ThreadSpans* ts :
       flexbench::Recorder::instance().snapshot()) {
    for (const flexbench::SolveSpan& s : ts->solves) {
      t.calls += s.frames;
      t.iterations += static_cast<double>(s.iterations);
      t.converged += s.converged;
      t.hinted += s.sigma_hint ? s.frames : 0;
      t.solve_s += flexbench::seconds_between(s.start, s.end);
      t.applies += static_cast<double>(s.applies);
      t.apply_s += s.apply_seconds;
      t.dense_applies += s.dense ? static_cast<double>(s.applies) : 0.0;
    }
  }
  return t;
}

struct LayerRow {
  std::string layer;
  double seconds;  // summed over the run's frames, wall-time equivalent
};

// Splits the frames' summed wall time into layer self times. StreamServer
// workloads: every row is measured on its own (the bench's clocks for the
// generator, the library's queue and decode times, the spans for solver and
// operator), so `unattributed` is a real residual. Tiled workloads: the
// scatter/gather window is split by the thread time each layer used in it,
// over the worker count; what the workers did not fill is pool idle time.
std::vector<LayerRow> layer_table(const RunResult& r, const SpanTotals& s,
                                  double& wall) {
  wall = 0.0;
  const bool single = r.workload == "stream_clean" ||
                      r.workload == "ladder_defects";
  double gen = 0, queue = 0, decode = 0, scatter = 0, tiles = 0;
  for (const FrameRecord& f : r.frames) {
    wall += f.latency_s;
    gen += f.submit_s;
    queue += f.queue_s;
    decode += f.decode_s;
    scatter += f.scatter_s;
    for (double t : f.tile_s) tiles += t;
  }
  const double w = static_cast<double>(r.workers);
  if (single) {
    return {{"bench.generator", gen},
            {"runtime.stream", queue},
            {"runtime.pipeline+cs.decoder", decode - s.solve_s},
            {"solvers", s.solve_s - s.apply_s},
            {"la", s.apply_s},
            {"unattributed", wall - gen - queue - decode}};
  }
  if (r.workload == "tiles_gated") {
    return {{"runtime.activity+shard", wall - scatter},
            {"runtime.stream (pool idle)", scatter - tiles / w},
            {"runtime.pipeline+cs.decoder", (tiles - s.solve_s) / w},
            {"solvers", (s.solve_s - s.apply_s) / w},
            {"la", s.apply_s / w},
            {"unattributed", 0.0}};
  }
  // tiles_fleet: tiles decode in worker processes, whose spans stay there.
  return {{"runtime.service (broker, wire, idle)", wall - tiles / w},
          {"worker processes (untraced)", tiles / w},
          {"unattributed", 0.0}};
}

std::vector<Metric> per_layer(const RunResult& r, const RunResult& untraced,
                              const SpanTotals& s, double unattributed_frac) {
  const std::vector<const FrameRecord*> done = completed(r);
  const double frames = static_cast<double>(done.size());
  const bool single = r.workload == "stream_clean" ||
                      r.workload == "ladder_defects";

  // Pipeline frames: whole frames on the StreamServer workloads, decoded
  // tiles on the tiled ones.
  std::vector<double> queue_ms, pipe_ms, self_ms, scatter_ms, tile_max_ms;
  std::vector<double> rungs(flexcs::runtime::kStrategyCount, 0.0);
  double pipe_frames = 0, calls = 0, accepted = 0, degraded = 0, expired = 0;
  double pipe_s = 0, skipped = 0, forced = 0, tiles_total = 0;
  double decoded = 0, remote = 0, dispatches = 0, tile_s = 0;
  for (const FrameRecord& f : r.frames) {
    pipe_s += f.decode_s;
    for (double t : f.tile_s) pipe_s += t;
  }
  for (const FrameRecord* f : done) {
    calls += f->decode_calls;
    if (single) {
      queue_ms.push_back(f->queue_s * 1e3);
      pipe_ms.push_back(f->decode_s * 1e3);
      rungs[static_cast<std::size_t>(f->rung)] += 1;
      accepted += f->accepted ? 1 : 0;
      degraded += f->degrade_level > 0 ? 1 : 0;
      expired += f->deadline_expired ? 1 : 0;
      pipe_frames += 1;
      continue;
    }
    for (double t : f->tile_s) {
      pipe_ms.push_back(t * 1e3);
      tile_s += t;
    }
    for (int g : f->tile_rungs) rungs[static_cast<std::size_t>(g)] += 1;
    accepted += static_cast<double>(f->tiles_accepted);
    pipe_frames += static_cast<double>(f->tiles_decoded);
    skipped += static_cast<double>(f->tiles_skipped);
    forced += static_cast<double>(f->tiles_forced);
    tiles_total += static_cast<double>(f->tiles_decoded + f->tiles_skipped);
    decoded += static_cast<double>(f->tiles_decoded);
    remote += static_cast<double>(f->tiles_remote);
    dispatches += static_cast<double>(f->tile_dispatches);
    scatter_ms.push_back(f->scatter_s * 1e3);
    self_ms.push_back((f->latency_s - f->scatter_s) * 1e3);
    double slowest = 0.0;
    for (double t : f->tile_s) slowest = std::max(slowest, t);
    tile_max_ms.push_back(slowest * 1e3);
  }
  const bool fleet = r.workload == "tiles_fleet";
  const flexcs::runtime::ServiceHealth& h = r.service;
  const char* rung_names[] = {"plain", "trimmed", "fresh-pattern", "resample",
                              "rpca-window"};
  std::vector<Metric> m = {
      {"runtime.stream.queue_wait_ms_p50", percentile(queue_ms, 0.5), "ms"},
      {"runtime.stream.queue_wait_ms_tail",
       percentile(queue_ms, r.tail_q), "ms"},
      {"runtime.stream.degraded_frac", ratio(degraded, frames), "fraction"},
      {"runtime.stream.deadline_expired_frac", ratio(expired, frames),
       "fraction"},
      {"runtime.stream.queue_high_water",
       static_cast<double>(r.queue_high_water), "count"},
      {"runtime.pipeline.frame_ms_p50", percentile(pipe_ms, 0.5), "ms"},
      {"runtime.pipeline.decode_calls_per_frame", ratio(calls, pipe_frames),
       "count"},
  };
  for (std::size_t k = 0; k < rungs.size(); ++k)
    m.push_back({std::string("runtime.pipeline.rung_share.") + rung_names[k],
                 ratio(rungs[k], pipe_frames), "fraction"});
  const std::vector<Metric> rest = {
      {"runtime.pipeline.accepted_frac", ratio(accepted, pipe_frames),
       "fraction"},
      {"cs.decoder.self_ms_per_call",
       fleet ? 0.0 : ratio(pipe_s - s.solve_s, s.calls) * 1e3, "ms"},
      {"solvers.calls", s.calls, "count"},
      {"solvers.iterations_per_call", ratio(s.iterations, s.calls), "count"},
      {"solvers.converged_frac", ratio(s.converged, s.calls), "fraction"},
      {"solvers.self_ms_per_call", ratio(s.solve_s - s.apply_s, s.calls) * 1e3,
       "ms"},
      {"solvers.sigma_hint_frac", ratio(s.hinted, s.calls), "fraction"},
      {"solvers.setup_applies_per_call",
       ratio(s.applies - 2.0 * s.iterations, s.calls), "count"},
      {"la.applies_per_call", ratio(s.applies, s.calls), "count"},
      {"la.apply_us_mean", ratio(s.apply_s, s.applies) * 1e6, "us"},
      {"la.apply_share", ratio(s.apply_s, s.solve_s), "fraction"},
      {"la.dense_share", ratio(s.dense_applies, s.applies), "fraction"},
      {"runtime.activity.skipped_frac", ratio(skipped, tiles_total),
       "fraction"},
      {"runtime.activity.forced_frac", ratio(forced, tiles_total), "fraction"},
      {"runtime.shard.scatter_gather_ms_p50", percentile(scatter_ms, 0.5),
       "ms"},
      {"runtime.shard.self_ms_p50", percentile(self_ms, 0.5), "ms"},
      {"runtime.shard.tile_ms_tail", percentile(tile_max_ms, r.tail_q),
       "ms"},
      {"runtime.service.worker_busy_frac",
       fleet ? ratio(tile_s, static_cast<double>(r.workers) * r.wall_s) : 0.0,
       "fraction"},
      {"runtime.service.dispatches_per_tile",
       fleet ? ratio(dispatches, decoded) : 0.0, "count"},
      {"runtime.service.redispatches",
       static_cast<double>(h.tile_redispatches), "count"},
      {"runtime.service.tiles_in_process",
       static_cast<double>(h.tiles_in_process), "count"},
      {"runtime.service.worker_respawns",
       static_cast<double>(h.worker_respawns), "count"},
      {"runtime.service.checksum_rejects",
       static_cast<double>(h.checksum_rejects), "count"},
      {"runtime.service.frames_lost", static_cast<double>(h.frames_lost),
       "count"},
      {"runtime.service.remote_share", fleet ? ratio(remote, decoded) : 0.0,
       "fraction"},
      {"trace.goodput_cost_frac",
       ratio(untraced.goodput_fps - r.goodput_fps, untraced.goodput_fps),
       "fraction"},
      {"layers.unattributed_frac", unattributed_frac, "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// The traced run must be the same program: on every frame both runs
// completed, the pixels and the ladder's outcome must match exactly.
// Frames whose output legitimately depends on timing are skipped.
std::size_t compare_runs(const RunResult& a, const RunResult& b,
                         std::vector<std::string>& failures,
                         std::size_t& comparable) {
  std::map<std::uint64_t, const FrameRecord*> by_id;
  for (const FrameRecord& f : a.frames)
    if (f.completed) by_id[f.id] = &f;
  std::size_t compared = 0;
  comparable = 0;
  for (const FrameRecord& f : b.frames) {
    if (!f.completed) continue;
    auto it = by_id.find(f.id);
    if (it == by_id.end()) continue;
    ++comparable;
    const FrameRecord& g = *it->second;
    if (f.timing_dependent || g.timing_dependent) continue;
    ++compared;
    if (f.digest != g.digest || f.rung != g.rung ||
        f.decode_calls != g.decode_calls || f.accepted != g.accepted ||
        f.tiles_skipped != g.tiles_skipped || f.tile_rungs != g.tile_rungs ||
        f.rmse != g.rmse)
      failures.push_back("frame " + std::to_string(f.id) +
                         " differs between the untraced and traced runs");
  }
  return compared;
}

void usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n");
}

}  // namespace

int run(int argc, char** argv) {
  flexbench::RunSpec spec;
  bool traced = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      spec.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      spec.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      spec.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      traced = val == "1";
    } else {
      usage();
      return 2;
    }
  }
  const auto& names = flexbench::workload_names();
  if (!have_workload ||
      std::find(names.begin(), names.end(), spec.workload) == names.end() ||
      !(spec.seconds > 0.0)) {
    usage();
    return 2;
  }

  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  RunResult result;
  std::size_t compared = 0, comparable = 0;
  if (!traced) {
    spec.setups = 3;
    result = flexbench::run_workload(spec);
    metrics = end_to_end(result);
  } else {
    spec.seconds /= 2.0;
    const RunResult untraced = flexbench::run_workload(spec);
    flexbench::Recorder::instance().reset();
    spec.traced = true;
    result = flexbench::run_workload(spec);
    const SpanTotals spans = span_totals();
    failures = untraced.failures;
    compared = compare_runs(untraced, result, failures, comparable);
    if (compared == 0 || 2 * compared < comparable)
      failures.push_back("too few frames comparable between the untraced and "
                         "traced runs (" + std::to_string(compared) + " of " +
                         std::to_string(comparable) + ")");

    double wall = 0.0;
    const std::vector<LayerRow> rows = layer_table(result, spans, wall);
    const double n = static_cast<double>(result.frames.size());
    std::printf("per-layer self time, %s, %zu frames (ms per frame)\n",
                result.workload.c_str(), result.frames.size());
    double unattributed = 0.0;
    for (const LayerRow& row : rows) {
      std::printf("  %-40s %10.3f  %5.1f%%\n", row.layer.c_str(),
                  row.seconds / n * 1e3, 100.0 * ratio(row.seconds, wall));
      if (row.layer == "unattributed") unattributed = row.seconds;
      if (row.seconds < -kLayerTolerance * wall)
        failures.push_back("layer " + row.layer + " has negative self time");
    }
    std::printf("  %-40s %10.3f\n", "frame wall", wall / n * 1e3);
    const double unattributed_frac = ratio(std::fabs(unattributed), wall);
    if (unattributed_frac > kLayerTolerance)
      failures.push_back("layer self times miss the frame wall time by " +
                         std::to_string(100.0 * unattributed_frac) + " %");
    metrics = per_layer(result, untraced, spans, unattributed_frac);
  }
  failures.insert(failures.end(), result.failures.begin(),
                  result.failures.end());

  std::vector<double> lat;
  const std::size_t attempted = result.frames.size();
  double max_late = 0.0;
  for (const FrameRecord& f : result.frames) {
    if (f.completed) lat.push_back(f.latency_s);
    max_late = std::max(max_late, f.late_s);
  }
  const double tail = percentile(lat, result.tail_q);
  const auto beyond = static_cast<std::size_t>(std::count_if(
      lat.begin(), lat.end(), [&](double v) { return v > tail; }));
  const std::size_t good = good_count(result);

  std::printf(
      "record: {\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
      "\"frames_offered\": %zu, \"frames_completed\": %zu, "
      "\"frames_good\": %zu, "
      "\"tail_percentile\": %g, \"frames_beyond_tail\": %zu, "
      "\"generator_late_ms_max\": %.3f, \"compared_frames\": %zu, "
      "\"comparable_frames\": %zu, \"reference_frames\": %zu, "
      "\"layer_tolerance\": %g, \"failures\": %zu}\n",
      result.workload.c_str(), static_cast<unsigned long long>(spec.seed),
      traced ? "true" : "false", attempted, lat.size(), good,
      100.0 * result.tail_q, beyond, max_late * 1e3, compared, comparable,
      result.reference_frames, kLayerTolerance, failures.size());
  for (const std::string& f : failures)
    std::printf("check failed: %s\n", f.c_str());
  const bool correct = failures.empty() && good > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, attempted - good,
              json_metrics(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flexbench: %s\n", e.what());
    return 1;
  }
}
