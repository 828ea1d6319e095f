// Tracing for the benchmark, kept entirely on the benchmark side: decorators
// the library already accepts (a SparseSolver passed as the runtime's solver,
// and the la::LinearOperator each solve receives) time the calls into the
// solver and operator layers. Each solve leaves one span, tagged with its
// thread, that carries the totals of the operator calls nested in it. Spans
// stay in per-thread buffers in memory and are summarised when the run ends.
//
// The decorators only forward: every call reaches the wrapped object with
// the same arguments, and dense() / norm_upper_bound() are forwarded, so the
// solver takes the same code path and produces the same bits. The benchmark
// checks that claim on every traced run by comparing pixels with an untraced
// run of the same inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "la/operator.hpp"
#include "solvers/solver.hpp"

namespace flexbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One solve (or batched solve) through the solver layer, with the totals of
// the operator calls nested in it.
struct SolveSpan {
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t frames = 1;     // right-hand sides in the call
  std::uint64_t iterations = 0;  // summed over frames
  std::uint32_t converged = 0;   // frames that met the tolerance
  bool sigma_hint = false;       // arrived with operator_norm_hint > 0
  std::uint64_t applies = 0;     // nested operator applications (vectors)
  double apply_seconds = 0.0;    // wall time of the nested operator calls
  bool dense = false;            // the operator exposes a dense matrix
};

struct ThreadSpans {
  std::uint32_t thread = 0;  // dense id, in order of first span
  std::vector<SolveSpan> solves;
};

// Process-wide span store. Each thread appends to its own buffer without
// locking; the registry lock is taken only when a thread records its first
// span after a reset(). reset() and snapshot() must run while no traced
// call is in flight (the benchmark calls them between runs).
class Recorder {
 public:
  static Recorder& instance() {
    static Recorder rec;
    return rec;
  }

  ThreadSpans& local() {
    thread_local ThreadSpans* buf = nullptr;
    thread_local std::uint64_t gen = 0;
    const std::uint64_t now = generation_.load(std::memory_order_acquire);
    if (buf == nullptr || gen != now) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadSpans>());
      buf = buffers_.back().get();
      buf->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
      gen = now;
    }
    return *buf;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.clear();
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::vector<const ThreadSpans*> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const ThreadSpans*> out;
    for (const auto& b : buffers_) out.push_back(b.get());
    return out;
  }

 private:
  Recorder() = default;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
  std::atomic<std::uint64_t> generation_{1};
};

// Operator decorator: times every apply and counts the vectors it touched.
// Lives on the stack of one solve, so its counters need no synchronisation.
class TimedOperator final : public flexcs::la::LinearOperator {
 public:
  explicit TimedOperator(const flexcs::la::LinearOperator& inner)
      : inner_(inner) {}

  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  const flexcs::la::Matrix* dense() const override { return inner_.dense(); }
  double norm_upper_bound() const override {
    return inner_.norm_upper_bound();
  }

  flexcs::la::Vector apply(const flexcs::la::Vector& x) const override {
    const Clock::time_point t0 = Clock::now();
    flexcs::la::Vector y = inner_.apply(x);
    record(t0, 1);
    return y;
  }
  flexcs::la::Vector apply_adjoint(
      const flexcs::la::Vector& y) const override {
    const Clock::time_point t0 = Clock::now();
    flexcs::la::Vector x = inner_.apply_adjoint(y);
    record(t0, 1);
    return x;
  }
  std::vector<flexcs::la::Vector> apply_batch(
      const std::vector<flexcs::la::Vector>& xs) const override {
    const Clock::time_point t0 = Clock::now();
    std::vector<flexcs::la::Vector> ys = inner_.apply_batch(xs);
    record(t0, xs.size());
    return ys;
  }
  std::vector<flexcs::la::Vector> apply_adjoint_batch(
      const std::vector<flexcs::la::Vector>& ys) const override {
    const Clock::time_point t0 = Clock::now();
    std::vector<flexcs::la::Vector> xs = inner_.apply_adjoint_batch(ys);
    record(t0, ys.size());
    return xs;
  }

  std::uint64_t applies() const { return applies_; }
  double apply_seconds() const { return apply_seconds_; }

 private:
  void record(Clock::time_point t0, std::size_t count) const {
    applies_ += count;
    apply_seconds_ += seconds_between(t0, Clock::now());
  }

  const flexcs::la::LinearOperator& inner_;
  mutable std::uint64_t applies_ = 0;
  mutable double apply_seconds_ = 0.0;
};

// Solver decorator: forwards solve and solve_batch to the wrapped solver
// with the operator wrapped in a TimedOperator, and records one span per
// call on the calling thread.
class TimedSolver final : public flexcs::solvers::SparseSolver {
 public:
  explicit TimedSolver(
      std::shared_ptr<const flexcs::solvers::SparseSolver> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

 protected:
  flexcs::solvers::SolveResult solve_impl(
      const flexcs::la::LinearOperator& a, const flexcs::la::Vector& b,
      const flexcs::solvers::SolveOptions& ctrl) const override {
    const TimedOperator op(a);
    const Clock::time_point t0 = Clock::now();
    flexcs::solvers::SolveResult r = inner_->solve(op, b, ctrl);
    Recorder::instance().local().solves.push_back(SolveSpan{
        t0, Clock::now(), 1, static_cast<std::uint64_t>(r.iterations),
        r.converged ? 1u : 0u, ctrl.operator_norm_hint > 0.0, op.applies(),
        op.apply_seconds(), a.dense() != nullptr});
    return r;
  }

  std::vector<flexcs::solvers::SolveResult> solve_batch_impl(
      const flexcs::la::LinearOperator& a,
      const std::vector<flexcs::la::Vector>& bs,
      const flexcs::solvers::SolveOptions& ctrl) const override {
    const TimedOperator op(a);
    const Clock::time_point t0 = Clock::now();
    std::vector<flexcs::solvers::SolveResult> rs =
        inner_->solve_batch(op, bs, ctrl);
    SolveSpan span{t0, Clock::now(), static_cast<std::uint32_t>(rs.size()),
                   0, 0, ctrl.operator_norm_hint > 0.0, op.applies(),
                   op.apply_seconds(), a.dense() != nullptr};
    for (const auto& r : rs) {
      span.iterations += static_cast<std::uint64_t>(r.iterations);
      span.converged += r.converged ? 1u : 0u;
    }
    Recorder::instance().local().solves.push_back(span);
    return rs;
  }

 private:
  std::shared_ptr<const flexcs::solvers::SparseSolver> inner_;
};

}  // namespace flexbench
