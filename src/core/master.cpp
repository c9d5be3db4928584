#include "core/master.hpp"

#include "common/hash.hpp"

namespace ftmr::core {

namespace {

// Trace names and categories, interned once (metrics::TraceName).
const metrics::TraceCat kCatMaster{"master"};
const metrics::TraceName kMasterBroadcast{"master.broadcast"};

}  // namespace

DistributedMaster::DistributedMaster(simmpi::Comm& comm) : comm_(comm) {}

std::vector<uint64_t> DistributedMaster::assign_tasks(size_t ntasks, int nranks,
                                                      int rank) {
  std::vector<uint64_t> mine;
  for (uint64_t t = 0; t < ntasks; ++t) {
    if (assign_task_to_rank(t, nranks) == rank) mine.push_back(t);
  }
  return mine;
}

void DistributedMaster::on_task_start(uint64_t task_id, uint64_t total_bytes) {
  record({.task_id = task_id, .state = TaskState::kRunning, .total_bytes = total_bytes});
}

void DistributedMaster::on_task_progress(uint64_t task_id, uint64_t records_done,
                                         uint64_t bytes_done) {
  record({.task_id = task_id, .state = TaskState::kRunning,
          .records_done = records_done, .bytes_done = bytes_done});
}

void DistributedMaster::on_task_done(uint64_t task_id, uint64_t records_done,
                                     uint64_t bytes_done) {
  record({.task_id = task_id, .state = TaskState::kDone,
          .records_done = records_done, .bytes_done = bytes_done});
}

void DistributedMaster::record(TaskStatus ts) {
  ts.owner = comm_.global_rank();
  local_.upsert(ts);
  global_.upsert(ts);
}

Status DistributedMaster::exchange_now() {
  const double t0 = comm_.now();
  std::vector<Bytes> tables;
  if (auto s = comm_.allgather(local_.encode(), tables); !s.ok()) return s;
  for (const Bytes& blob : tables) {
    TaskTable t;
    if (auto s = TaskTable::decode(blob, t); !s.ok()) return s;
    global_.merge(t);
  }
  if (trace_) trace_->span(kMasterBroadcast, kCatMaster, t0, comm_.now());
  return Status::Ok();
}

}  // namespace ftmr::core
