// task.hpp — task descriptors and the master's status tables.
//
// Paper Sec. 3.3: each master thread keeps two task status tables — one for
// its local tasks and one for all tasks globally — and assigns tasks to
// ranks with a deterministic hash so no coordination is needed at startup.
// The paper keeps the global table current by periodic broadcast; here the
// masters allgather their local tables once per map phase, at the map
// boundary (DistributedMaster::exchange_now).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace ftmr::core {

enum class TaskState : uint8_t { kPending = 0, kRunning = 1, kDone = 2 };

struct TaskStatus {
  uint64_t task_id = 0;
  int owner = -1;            // global rank currently responsible
  TaskState state = TaskState::kPending;
  uint64_t records_done = 0;
  uint64_t bytes_done = 0;
  uint64_t total_bytes = 0;  // task input size (0 = not yet reported)

  /// Progress fraction in [0,1]; 0 while the input size is unknown.
  [[nodiscard]] double progress_fraction() const noexcept {
    if (state == TaskState::kDone) return 1.0;
    if (total_bytes == 0) return 0.0;
    const double f = static_cast<double>(bytes_done) /
                     static_cast<double>(total_bytes);
    return f > 1.0 ? 1.0 : f;
  }
};

/// Status table: task id -> status. Used for both the local and the global
/// view; the global view is merged from the status exchange.
class TaskTable {
 public:
  /// Insert or replace; the task's input size is sticky — progress updates
  /// are reported without it (only on_task_start knows it), so a replace
  /// keeps the largest total_bytes seen rather than zeroing it.
  void upsert(const TaskStatus& ts) {
    auto it = tasks_.find(ts.task_id);
    if (it == tasks_.end()) {
      tasks_[ts.task_id] = ts;
      return;
    }
    const uint64_t total = std::max(it->second.total_bytes, ts.total_bytes);
    it->second = ts;
    it->second.total_bytes = total;
  }

  [[nodiscard]] const TaskStatus* find(uint64_t task_id) const {
    auto it = tasks_.find(task_id);
    return it == tasks_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] size_t size() const noexcept { return tasks_.size(); }
  [[nodiscard]] const std::map<uint64_t, TaskStatus>& all() const noexcept {
    return tasks_;
  }

  [[nodiscard]] size_t done_count() const noexcept {
    size_t n = 0;
    for (const auto& [id, t] : tasks_) n += (t.state == TaskState::kDone);
    return n;
  }

  /// Merge another table, preferring entries with more progress (monotone
  /// state/record counters make merges order-independent).
  void merge(const TaskTable& other) {
    for (const auto& [id, t] : other.tasks_) {
      auto it = tasks_.find(id);
      if (it == tasks_.end()) {
        tasks_[id] = t;
        continue;
      }
      const uint64_t total = std::max(it->second.total_bytes, t.total_bytes);
      if (t.state > it->second.state ||
          (t.state == it->second.state && t.records_done > it->second.records_done)) {
        it->second = t;
      }
      it->second.total_bytes = total;
    }
  }

  [[nodiscard]] Bytes encode() const {
    ByteWriter w;
    w.put<uint64_t>(tasks_.size());
    for (const auto& [id, t] : tasks_) {
      w.put<uint64_t>(t.task_id);
      w.put<int32_t>(t.owner);
      w.put<uint8_t>(static_cast<uint8_t>(t.state));
      w.put<uint64_t>(t.records_done);
      w.put<uint64_t>(t.bytes_done);
      w.put<uint64_t>(t.total_bytes);
    }
    return std::move(w).take();
  }

  static Status decode(std::span<const std::byte> data, TaskTable& out) {
    out = TaskTable{};
    ByteReader r(data);
    uint64_t n = 0;
    if (auto s = r.get(n); !s.ok()) return s;
    for (uint64_t i = 0; i < n; ++i) {
      TaskStatus t;
      uint8_t state = 0;
      int32_t owner = 0;
      if (auto s = r.get(t.task_id); !s.ok()) return s;
      if (auto s = r.get(owner); !s.ok()) return s;
      if (auto s = r.get(state); !s.ok()) return s;
      if (auto s = r.get(t.records_done); !s.ok()) return s;
      if (auto s = r.get(t.bytes_done); !s.ok()) return s;
      if (auto s = r.get(t.total_bytes); !s.ok()) return s;
      t.owner = owner;
      t.state = static_cast<TaskState>(state);
      out.upsert(t);
    }
    return Status::Ok();
  }

 private:
  std::map<uint64_t, TaskStatus> tasks_;
};

}  // namespace ftmr::core
