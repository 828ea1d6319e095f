// The four benchmark workloads and what one run of them records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/service.hpp"

namespace flexbench {

// One frame offered to the system during the measured window.
struct FrameRecord {
  std::uint64_t id = 0;      // frame number, a pure function of the inputs
  bool completed = false;    // a result came back for it
  bool good = false;         // on time (where a deadline applies) + accepted
  double latency_s = 0.0;    // from due (open loop) or submit (closed loop)
  double rmse = 0.0;         // against ground truth
  std::uint64_t digest = 0;  // hash of the delivered pixels
  bool timing_dependent = false;  // output may legitimately differ by run
  // Single-frame (StreamServer) workloads.
  int rung = -1;  // runtime::Strategy of the delivered frame
  bool accepted = false;
  bool deadline_expired = false;
  int degrade_level = 0;
  int decode_calls = 0;
  double queue_s = 0.0;
  double decode_s = 0.0;
  double late_s = 0.0;    // generator's own wake-up lateness (open loop)
  double submit_s = 0.0;  // due -> submit call, blocked submits included
  // Tiled workloads.
  std::size_t tiles_skipped = 0;
  std::size_t tiles_forced = 0;
  std::size_t tiles_decoded = 0;
  double scatter_s = 0.0;      // ShardReport.decode_seconds
  std::vector<double> tile_s;  // decode time of each decoded tile
  std::vector<int> tile_rungs;  // strategies of decoded tiles
  std::size_t tiles_accepted = 0;
  std::size_t tiles_remote = 0;
  std::size_t tile_dispatches = 0;
};

struct RunResult {
  std::string workload;
  double setup_s = 0.0;             // median over the set-ups of this run
  double wall_s = 0.0;              // goodput denominator
  double goodput_fps = 0.0;
  // Percentile reported as the latency tail: the highest of p90/p99 with at
  // least ten frames beyond it at the benchmark's run length, or p75 on the
  // workloads that complete fewer than 100 frames a run.
  double tail_q = 0.9;
  std::vector<FrameRecord> frames;  // offered frames, completed or not
  std::vector<std::string> failures;  // output checks that did not hold
  std::size_t workers = 0;          // decode workers (threads or processes)
  std::size_t queue_high_water = 0;
  flexcs::runtime::ServiceHealth service;  // tiles_fleet only
  std::size_t reference_frames = 0;  // fleet frames checked against workers=0
};

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int setups = 1;  // set-ups whose median is reported as setup_s
};

const std::vector<std::string>& workload_names();

/// Generates the workload's inputs from the seed, sets the system up
/// `spec.setups` times (keeping the last), then measures for spec.seconds.
RunResult run_workload(const RunSpec& spec);

}  // namespace flexbench
