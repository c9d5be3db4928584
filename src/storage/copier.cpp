#include "storage/copier.hpp"

#include <algorithm>
#include <filesystem>

namespace ftmr::storage {

namespace {

// Trace names and categories, interned once (metrics::TraceName).
const metrics::TraceCat kCatCopier{"copier"};
const metrics::TraceCat kCatPrefetch{"prefetch"};
const metrics::TraceName kCopierCopy{"copier.copy"};
const metrics::TraceName kCopierDrainFailed{"copier.drain_failed"};
const metrics::TraceName kCopierRetry{"copier.retry"};
const metrics::TraceName kPrefetchRead{"prefetch.read"};
const metrics::TraceName kPrefetchRetry{"prefetch.retry"};
const metrics::TraceName kPrefetchStage{"prefetch.stage"};

// Per-copy CPU cost of the copier (it shares a core with the main thread —
// Fig. 7 shows ~3% CPU): a memcpy-speed pass over the payload plus a small
// per-file dispatch cost.
constexpr double kCopierCpuPerByteS = 1.0 / 6.0e9;  // ~6 GB/s buffer pass
constexpr double kCopierDispatchS = 20e-6;

}  // namespace

Status CopierAgent::enqueue(std::string_view local_path, std::string_view shared_path,
                            double now, double* done_at) {
  double io_cost = 0.0;
  double backoff_total = 0.0;
  const Status last = RetryPolicy::run(
      [&](int) {
        return storage_->copy(Tier::kLocal, node_, local_path, Tier::kShared, node_,
                              shared_path, &io_cost, concurrency_);
      },
      [&](double backoff) {
        backoff_total += backoff;
        {
          MutexLock lock(mu_);
          retries_++;
        }
        // Leaf-lock discipline: the recorder is emitted into outside mu_.
        if (trace_) trace_->instant(kCopierRetry, kCatCopier, now);
        metrics::MetricsRegistry::global().add("copier.retries", node_);
      });
  if (!last.ok()) {
    {
      MutexLock lock(mu_);
      busy_until_ = std::max(busy_until_, now) + backoff_total;
      failed_.push_back({std::string(local_path), std::string(shared_path), last});
    }
    if (trace_) trace_->instant(kCopierDrainFailed, kCatCopier, now);
    metrics::MetricsRegistry::global().add("copier.drain_failures", node_);
    return last;
  }
  const int64_t size = storage_->file_size(Tier::kShared, node_, shared_path);
  double span_start = 0.0;
  double span_end = 0.0;
  {
    MutexLock lock(mu_);
    // The copier starts this job when it's free and the job has been issued;
    // retries stretch its timeline by the backoff it sat out.
    const double start = std::max(busy_until_, now);
    busy_until_ = start + backoff_total + io_cost;
    io_seconds_ += io_cost;
    cpu_seconds_ += kCopierDispatchS +
                    kCopierCpuPerByteS * static_cast<double>(std::max<int64_t>(size, 0));
    bytes_ += static_cast<size_t>(std::max<int64_t>(size, 0));
    copies_++;
    if (done_at) *done_at = busy_until_;
    span_start = start;
    span_end = busy_until_;
  }
  if (trace_) trace_->span(kCopierCopy, kCatCopier, span_start, span_end);
  return Status::Ok();
}

double CopierAgent::busy_until() const {
  MutexLock lock(mu_);
  return busy_until_;
}

double CopierAgent::drain_wait(double now) const {
  MutexLock lock(mu_);
  return std::max(0.0, busy_until_ - now);
}

double CopierAgent::cpu_seconds() const {
  MutexLock lock(mu_);
  return cpu_seconds_;
}

double CopierAgent::io_seconds() const {
  MutexLock lock(mu_);
  return io_seconds_;
}

size_t CopierAgent::bytes_copied() const {
  MutexLock lock(mu_);
  return bytes_;
}

int CopierAgent::copies() const {
  MutexLock lock(mu_);
  return copies_;
}

int CopierAgent::retries() const {
  MutexLock lock(mu_);
  return retries_;
}

std::vector<FailedDrain> CopierAgent::failed_drains() const {
  MutexLock lock(mu_);
  return failed_;
}

Status Prefetcher::start(std::span<const std::string> shared_paths,
                         std::string_view local_prefix, double start) {
  available_at_.clear();
  local_paths_.clear();
  staged_error_.clear();
  double t = start;
  for (const std::string& sp : shared_paths) {
    const std::string base = std::filesystem::path(sp).filename().string();
    const std::string lp = std::string(local_prefix) + "/" + base;
    const double stage_start = t;
    double io_cost = 0.0;
    const Status last = RetryPolicy::run(
        [&](int) {
          return storage_->copy(Tier::kShared, node_, sp, Tier::kLocal, node_, lp,
                                &io_cost, concurrency_);
        },
        [&](double backoff) {
          t += backoff;
          retries_++;
          if (trace_) trace_->instant(kPrefetchRetry, kCatPrefetch, t);
          metrics::MetricsRegistry::global().add("prefetch.retries", node_);
        });
    if (last.ok()) t += io_cost;
    if (trace_) trace_->span(kPrefetchStage, kCatPrefetch, stage_start, t);
    available_at_.push_back(t);
    local_paths_.push_back(lp);
    staged_error_.push_back(last);  // a failed stage is reported, not fatal
  }
  return Status::Ok();
}

Status Prefetcher::read(size_t i, double now, Bytes& out, double* sim_cost) {
  if (i >= local_paths_.size()) {
    return {ErrorCode::kOutOfRange, "Prefetcher::read: index out of range"};
  }
  if (!staged_error_[i].ok()) return staged_error_[i];
  double local_cost = 0.0;
  if (auto s = storage_->read_file(Tier::kLocal, node_, local_paths_[i], out,
                                   &local_cost);
      !s.ok()) {
    return s;
  }
  const double stall = std::max(0.0, available_at_[i] - now);
  if (trace_) trace_->span(kPrefetchRead, kCatPrefetch, now, now + stall + local_cost);
  if (sim_cost) *sim_cost = stall + local_cost;
  return Status::Ok();
}

}  // namespace ftmr::storage
