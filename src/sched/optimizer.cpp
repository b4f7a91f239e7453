#include "sched/optimizer.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace dosas::sched {

namespace {

Policy make_policy(const CostModel& model, std::span<const ActiveRequest> requests,
                   std::vector<bool> active) {
  Policy p;
  p.predicted_time = model.objective(requests, active);
  p.active = std::move(active);
  return p;
}

}  // namespace

Optimizer::Optimizer(std::string name)
    : name_(std::move(name)),
      solver_us_("sched.solver_us." + name_),
      solver_k_("sched.solver_k." + name_),
      demotions_("sched.demotions." + name_) {}

Policy Optimizer::run(const CostModel& model, std::span<const ActiveRequest> requests) const {
  if (!obs::metrics_enabled()) return optimize(model, requests);
  const double t0 = obs::now_us();
  Policy policy = optimize(model, requests);
  solver_us_.get().observe(obs::now_us() - t0);
  solver_k_.get().observe(static_cast<double>(requests.size()));
  demotions_.get().inc(requests.size() - policy.active_count());
  return policy;
}

// -------------------------------------------------------------- exhaustive

Policy ExhaustiveOptimizer::optimize(const CostModel& model,
                                     std::span<const ActiveRequest> requests) const {
  assert(model.valid());
  const std::size_t k = requests.size();
  if (k == 0) return Policy{{}, 0.0};
  if (k > max_k_) return SortMinOptimizer{}.optimize(model, requests);

  // Precompute per-request terms.
  std::vector<Seconds> x(k), y(k), z(k);
  for (std::size_t i = 0; i < k; ++i) {
    x[i] = model.x_i(requests[i]);
    y[i] = model.y_i(requests[i]);
    z[i] = model.f_compute(requests[i].size);
  }

  Seconds best = std::numeric_limits<double>::infinity();
  std::uint64_t best_mask = 0;
  const std::uint64_t combos = 1ull << k;
  for (std::uint64_t mask = 0; mask < combos; ++mask) {
    Seconds t = 0.0;
    Seconds max_z = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (mask & (1ull << i)) {
        t += x[i];
      } else {
        t += y[i];
        max_z = std::max(max_z, z[i]);
      }
      if (t >= best) break;  // partial sums only grow
    }
    t += max_z;
    if (t < best) {
      best = t;
      best_mask = mask;
    }
  }

  std::vector<bool> active(k);
  for (std::size_t i = 0; i < k; ++i) active[i] = (best_mask >> i) & 1;
  return make_policy(model, requests, std::move(active));
}

// -------------------------------------------------------------- matrix (Eq. 9-11)

Policy MatrixEnumOptimizer::optimize(const CostModel& model,
                                     std::span<const ActiveRequest> requests) const {
  assert(model.valid());
  const std::size_t k = requests.size();
  if (k == 0) return Policy{{}, 0.0};
  if (k > max_k_) return ExhaustiveOptimizer{}.optimize(model, requests);

  const std::size_t m = std::size_t{1} << k;  // paper: m = 2^k columns

  // X = [x_1..x_k], Y = [y_1..y_k], Z-like vector of client compute times.
  std::vector<Seconds> X(k), Y(k), Zc(k);
  for (std::size_t i = 0; i < k; ++i) {
    X[i] = model.x_i(requests[i]);
    Y[i] = model.y_i(requests[i]);
    Zc[i] = model.f_compute(requests[i].size);
  }

  // A: k x m matrix of all distinct assignment columns; B = 1 - A.
  // (Materialized exactly as the paper describes; memory is k*m bytes.)
  std::vector<std::uint8_t> A(k * m);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      A[i * m + j] = static_cast<std::uint8_t>((j >> i) & 1);
    }
  }

  // Row vector t = X·A + Y·B + max_i(Zc_i * B_ij)  (Eq. 10).
  std::vector<Seconds> t(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    Seconds acc = 0.0;
    Seconds max_z = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const bool a = A[i * m + j] != 0;
      acc += a ? X[i] : Y[i];
      if (!a) max_z = std::max(max_z, Zc[i]);
    }
    t[j] = acc + max_z;
  }

  // argmin_j (Eq. 11).
  const std::size_t best_j = static_cast<std::size_t>(
      std::distance(t.begin(), std::min_element(t.begin(), t.end())));

  std::vector<bool> active(k);
  for (std::size_t i = 0; i < k; ++i) active[i] = A[i * m + best_j] != 0;
  return make_policy(model, requests, std::move(active));
}

// -------------------------------------------------------------- sortmin (exact, polynomial)

Policy SortMinOptimizer::optimize(const CostModel& model,
                                  std::span<const ActiveRequest> requests) const {
  assert(model.valid());
  const std::size_t k = requests.size();
  if (k == 0) return Policy{{}, 0.0};

  std::vector<Seconds> x(k), y(k);
  for (std::size_t i = 0; i < k; ++i) {
    x[i] = model.x_i(requests[i]);
    y[i] = model.y_i(requests[i]);
  }

  // Candidate 0: all active (z = 0).
  Seconds best = std::accumulate(x.begin(), x.end(), 0.0);
  std::size_t best_m = k;  // sentinel: no demotions

  // Order indices by size ascending; prefix sums of min(x,y) over that
  // order let us evaluate each "max-demoted = m" candidate in O(1).
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (requests[a].size != requests[b].size) return requests[a].size < requests[b].size;
    return a < b;
  });

  // prefix_min[p] = sum over the first p (smallest) requests of min(x,y);
  // suffix_x[p] = sum over requests from rank p on of x (forced active).
  std::vector<Seconds> prefix_min(k + 1, 0.0), suffix_x(k + 1, 0.0);
  for (std::size_t p = 0; p < k; ++p) {
    prefix_min[p + 1] = prefix_min[p] + std::min(x[order[p]], y[order[p]]);
  }
  for (std::size_t p = k; p-- > 0;) {
    suffix_x[p] = suffix_x[p + 1] + x[order[p]];
  }

  // Candidate m at rank r: request m is demoted and is the largest demoted
  // one. Requests with strictly larger size must be active; same-or-smaller
  // ones (other than m) pick min(x, y) freely. With ties broken by rank,
  // "larger" means rank > r among strictly-larger sizes; equal-size
  // requests may be demoted too (they don't increase the max), so treat
  // ranks <= last-equal as free. Scan ranks and use the equal-size run end.
  std::size_t run_end = 0;  // one past the last rank with size == current
  for (std::size_t r = 0; r < k; ++r) {
    if (r >= run_end) {
      run_end = r + 1;
      while (run_end < k && requests[order[run_end]].size == requests[order[r]].size) {
        ++run_end;
      }
    }
    const std::size_t m = order[r];
    // Free choice for every request of rank < run_end except m itself.
    const Seconds free_sum = prefix_min[run_end] - std::min(x[m], y[m]);
    const Seconds forced = suffix_x[run_end];
    const Seconds t = free_sum + y[m] + forced + model.f_compute(requests[m].size);
    if (t < best) {
      best = t;
      best_m = m;
    }
  }

  // Materialize the winning assignment.
  std::vector<bool> active(k, true);
  if (best_m < k) {
    const Bytes dm = requests[best_m].size;
    for (std::size_t i = 0; i < k; ++i) {
      if (i == best_m) {
        active[i] = false;
      } else if (requests[i].size <= dm) {
        active[i] = x[i] <= y[i];
      } else {
        active[i] = true;
      }
    }
  }
  return make_policy(model, requests, std::move(active));
}

// -------------------------------------------------------------- branch & bound

Policy BranchBoundOptimizer::optimize(const CostModel& model,
                                      std::span<const ActiveRequest> requests) const {
  assert(model.valid());
  const std::size_t k = requests.size();
  last_nodes_ = 0;
  if (k == 0) return Policy{{}, 0.0};

  std::vector<Seconds> x(k), y(k), zc(k);
  for (std::size_t i = 0; i < k; ++i) {
    x[i] = model.x_i(requests[i]);
    y[i] = model.y_i(requests[i]);
    zc[i] = model.f_compute(requests[i].size);
  }

  // Relaxation: each undecided request contributes at least min(x, y) and
  // the z term never shrinks. suffix_min[p] = Σ_{i>=p} min(x_i, y_i).
  std::vector<Seconds> suffix_min(k + 1, 0.0);
  for (std::size_t p = k; p-- > 0;) suffix_min[p] = suffix_min[p + 1] + std::min(x[p], y[p]);

  Seconds best = std::numeric_limits<double>::infinity();
  std::vector<bool> current(k, true), best_assign(k, true);

  // Iterative DFS over (index, partial sum, current max-z).
  struct Frame {
    std::size_t i;
    Seconds sum;
    Seconds max_z;
    int stage;  // 0: try active, 1: try normal, 2: done
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0.0, 0.0, 0});

  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.i == k) {
      ++last_nodes_;
      const Seconds t = f.sum + f.max_z;
      if (t < best) {
        best = t;
        best_assign = current;
      }
      stack.pop_back();
      continue;
    }
    if (f.stage == 2 || f.sum + f.max_z + suffix_min[f.i] >= best) {
      stack.pop_back();
      continue;
    }
    ++last_nodes_;
    if (f.stage == 0) {
      f.stage = 1;
      current[f.i] = true;
      stack.push_back({f.i + 1, f.sum + x[f.i], f.max_z, 0});
    } else {
      f.stage = 2;
      current[f.i] = false;
      stack.push_back({f.i + 1, f.sum + y[f.i], std::max(f.max_z, zc[f.i]), 0});
    }
  }

  return make_policy(model, requests, std::move(best_assign));
}

// -------------------------------------------------------------- greedy

Policy GreedyOptimizer::optimize(const CostModel& model,
                                 std::span<const ActiveRequest> requests) const {
  assert(model.valid());
  std::vector<bool> active(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    active[i] = model.x_i(requests[i]) <= model.y_i(requests[i]);
  }
  return make_policy(model, requests, std::move(active));
}

// -------------------------------------------------------------- static baselines

Policy AllActiveOptimizer::optimize(const CostModel& model,
                                    std::span<const ActiveRequest> requests) const {
  return make_policy(model, requests, std::vector<bool>(requests.size(), true));
}

Policy AllNormalOptimizer::optimize(const CostModel& model,
                                    std::span<const ActiveRequest> requests) const {
  return make_policy(model, requests, std::vector<bool>(requests.size(), false));
}

// -------------------------------------------------------------- factory

std::unique_ptr<Optimizer> make_optimizer(const std::string& name) {
  if (name == "exhaustive") return std::make_unique<ExhaustiveOptimizer>();
  if (name == "matrix") return std::make_unique<MatrixEnumOptimizer>();
  if (name == "sortmin") return std::make_unique<SortMinOptimizer>();
  if (name == "branchbound") return std::make_unique<BranchBoundOptimizer>();
  if (name == "greedy") return std::make_unique<GreedyOptimizer>();
  if (name == "all-active") return std::make_unique<AllActiveOptimizer>();
  if (name == "all-normal") return std::make_unique<AllNormalOptimizer>();
  return nullptr;
}

}  // namespace dosas::sched
