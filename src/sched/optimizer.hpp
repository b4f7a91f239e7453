// optimizer.hpp — solvers for the DOSAS binary scheduling program (Eq. 8).
//
//   minimize_{a in {0,1}^k}  Σ_i [x_i a_i + y_i (1 - a_i)] + z(a)
//
// The paper proposes solving it with a constraint-programming solver or by
// enumerating all 2^k assignments (the matrix formulation of Eq. 9–11). We
// provide those two, plus an exact polynomial-time algorithm (the max-term
// structure admits an O(k log k) solution), an exact branch-and-bound, and
// a greedy heuristic used as an ablation baseline.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "sched/cost_model.hpp"
#include "sched/request.hpp"

namespace dosas::sched {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Strategy name, as make_optimizer() takes it.
  const std::string& name() const { return name_; }

  /// Choose the assignment minimizing the Eq. 4 objective. The returned
  /// Policy's predicted_time is the model objective of that assignment.
  virtual Policy optimize(const CostModel& model,
                          std::span<const ActiveRequest> requests) const = 0;

  /// Instrumented entry point the Contention Estimator calls: runs
  /// optimize() and, when the metrics registry is enabled, records solver
  /// wall time, queue size, and demotions under the strategy's name
  /// (sched.solver_us.<name>, sched.solver_k.<name>,
  /// sched.demotions.<name> — see docs/OBSERVABILITY.md). Zero-cost while
  /// metrics are disabled.
  Policy run(const CostModel& model, std::span<const ActiveRequest> requests) const;

 protected:
  explicit Optimizer(std::string name);

 private:
  const std::string name_;
  // Resolved on first enabled run(); mutable because run() is const.
  mutable obs::HistogramHandle solver_us_;
  mutable obs::HistogramHandle solver_k_;
  mutable obs::CounterHandle demotions_;
};

/// Brute-force enumeration of all 2^k assignments (the paper's "try all
/// possible combinations"). Exact; k is capped (default 20) — above the cap
/// it delegates to the exact polynomial algorithm.
class ExhaustiveOptimizer final : public Optimizer {
 public:
  explicit ExhaustiveOptimizer(std::size_t max_k = 20)
      : Optimizer("exhaustive"), max_k_(max_k) {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;

 private:
  std::size_t max_k_;
};

/// The paper's matrix formulation (Eq. 9–11): build A (k × 2^k) of all
/// assignments, B = 1 - A, evaluate X·A + Y·B + max-term as a 1×2^k vector
/// and take the argmin column. Numerically identical to ExhaustiveOptimizer
/// — kept as a faithful implementation of the published method. k capped
/// (default 16) for memory; above the cap it delegates to exhaustive.
class MatrixEnumOptimizer final : public Optimizer {
 public:
  explicit MatrixEnumOptimizer(std::size_t max_k = 16) : Optimizer("matrix"), max_k_(max_k) {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;

 private:
  std::size_t max_k_;
};

/// Exact polynomial algorithm. Key observation: once the largest demoted
/// request (the one defining z) is fixed to be request m, every other
/// request j independently takes min(x_j, y_j) — except requests with
/// d_j > d_m, which must stay active or they would redefine the max.
/// Trying every m (plus the all-active case) covers the space exactly in
/// O(k log k).
class SortMinOptimizer final : public Optimizer {
 public:
  SortMinOptimizer() : Optimizer("sortmin") {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;
};

/// Exact depth-first branch-and-bound with a min(x_i, y_i) relaxation
/// bound. Exists for the optimizer ablation (node counts / latency vs k);
/// results always match the other exact solvers.
class BranchBoundOptimizer final : public Optimizer {
 public:
  BranchBoundOptimizer() : Optimizer("branchbound") {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;

  /// Nodes expanded by the last optimize() call (not thread-safe; for
  /// single-threaded ablation benches only).
  std::uint64_t last_nodes() const { return last_nodes_; }

 private:
  mutable std::uint64_t last_nodes_ = 0;
};

/// Greedy heuristic: a_i = [x_i <= y_i] per request, ignoring the shared
/// z term. The "state-oblivious per-request rule" ablation baseline; can be
/// suboptimal when demoting one more request is free because z is already
/// paid.
class GreedyOptimizer final : public Optimizer {
 public:
  GreedyOptimizer() : Optimizer("greedy") {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;
};

/// Static baseline: everything active (the AS scheme's implicit policy).
class AllActiveOptimizer final : public Optimizer {
 public:
  AllActiveOptimizer() : Optimizer("all-active") {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;
};

/// Static baseline: everything normal (the TS scheme's implicit policy).
class AllNormalOptimizer final : public Optimizer {
 public:
  AllNormalOptimizer() : Optimizer("all-normal") {}
  Policy optimize(const CostModel& model,
                  std::span<const ActiveRequest> requests) const override;
};

/// Factory by name: "exhaustive", "matrix", "sortmin", "branchbound",
/// "greedy", "all-active", "all-normal". Returns nullptr for unknown names.
std::unique_ptr<Optimizer> make_optimizer(const std::string& name);

}  // namespace dosas::sched
