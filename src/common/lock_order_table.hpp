// lock_order_table.hpp — GENERATED from tools/ftmr_lint/lock_table.yaml
// by tools/ftmr_lint/gen_lock_table.py. DO NOT EDIT; edit the yaml and
// run `python3 tools/ftmr_lint/gen_lock_table.py --write`.
//
// Consumed by common/lock_order.cpp (the debug-build runtime lock-order
// checker). The same yaml drives the ftmr-lint static lock-order check,
// so the two validations can never disagree about the hierarchy.
#pragma once

namespace ftmr::lockorder {

inline constexpr const char* kLockNames[] = {
    "job.mu",
    "inbox.mu",
    "sched.mu",
    "log.sink",
    "metrics.registry",
    "metrics.trace",
    "metrics.intern",
    "storage.stats",
    "storage.segments",
    "replica.store",
    "copier.mu",
};

struct Edge {
  const char* from;
  const char* to;
};

// from may be held while acquiring to.
inline constexpr Edge kAllowedEdges[] = {
    {"job.mu", "inbox.mu"},
    {"job.mu", "sched.mu"},
    {"job.mu", "log.sink"},
    {"job.mu", "replica.store"},
};

}  // namespace ftmr::lockorder
