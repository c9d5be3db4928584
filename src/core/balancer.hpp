// balancer.hpp — the automated load balancer (paper Sec. 3.4).
//
// An agent on each process observes (input bytes processed, elapsed time)
// pairs; a linear model t = a + b*D is fitted per process by least squares.
// After a failure, the failed processes' remaining work is divided so the
// *predicted* finish times of all survivors equalize — the proportional
// redistribution that keeps everyone finishing at the same pace.
//
// The observations feed a linear fit in each rank's DistributedMaster;
// this module supplies the model exchange (one allgather of the fitted
// models at recovery) and the deterministic split every survivor computes
// identically.
#pragma once

#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/regression.hpp"
#include "common/status.hpp"
#include "simmpi/comm.hpp"

namespace ftmr::core {

class LoadBalancer {
 public:
  /// Allgather each survivor's fitted model so every rank holds the same
  /// model vector (indexed by rel rank on `comm`).
  static Status exchange_models(simmpi::Comm& comm, const LinearModel& mine,
                                std::vector<LinearModel>& all);

  /// Decode one gathered model blob. A short/truncated payload or a
  /// non-finite coefficient yields the sanitized identity model (plain size
  /// balancing) and sets `*valid` to false — a garbage peer model must
  /// degrade the split, never poison it.
  static LinearModel decode_model(std::span<const std::byte> blob,
                                  bool* valid = nullptr);

  /// Assign work items (with weights, e.g. chunk bytes) to ranks so that
  /// predicted finish times stay level. `current_finish[i]` is rank i's
  /// predicted finish of its already-assigned work. Greedy longest-
  /// processing-time: items are placed, heaviest first, on the rank whose
  /// predicted finish after taking the item is smallest. The paper's model
  /// is t = a + b·D, so a rank's *first* assignment also pays its fitted
  /// intercept `a` (per-rank fixed cost); ranks with current_finish > 0 are
  /// treated as already started. Deterministic: every survivor computes the
  /// identical assignment.
  /// Returns owner rel-rank per item.
  static std::vector<int> assign(const std::vector<double>& item_weights,
                                 const std::vector<LinearModel>& models,
                                 std::vector<double> current_finish);

  /// Fallback weights when a model is unusable (too few observations):
  /// unit marginal cost, so the split degrades to plain size balancing.
  static LinearModel sanitize(const LinearModel& m);
};

}  // namespace ftmr::core
