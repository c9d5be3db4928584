#include "core/balancer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/log.hpp"

namespace ftmr::core {

Status LoadBalancer::exchange_models(simmpi::Comm& comm, const LinearModel& mine,
                                     std::vector<LinearModel>& all) {
  ByteWriter w;
  w.put<double>(mine.a);
  w.put<double>(mine.b);
  w.put<double>(mine.r2);
  w.put<uint64_t>(mine.n);
  std::vector<Bytes> gathered;
  if (auto s = comm.allgather(w.bytes(), gathered); !s.ok()) return s;
  all.clear();
  all.reserve(gathered.size());
  for (size_t i = 0; i < gathered.size(); ++i) {
    bool valid = true;
    all.push_back(decode_model(gathered[i], &valid));
    if (!valid) {
      FTMR_WARN << "rank " << comm.global_rank() << " received invalid model blob"
                << " from rel rank " << i << " (" << gathered[i].size()
                << " bytes); using identity model";
    }
  }
  return Status::Ok();
}

LinearModel LoadBalancer::decode_model(std::span<const std::byte> blob,
                                       bool* valid) {
  LinearModel m;
  ByteReader r(blob);
  uint64_t n = 0;
  const bool complete = r.get(m.a).ok() && r.get(m.b).ok() && r.get(m.r2).ok() &&
                        r.get(n).ok();
  m.n = n;
  const bool finite =
      std::isfinite(m.a) && std::isfinite(m.b) && std::isfinite(m.r2);
  if (valid) *valid = complete && finite;
  if (!complete || !finite) {
    // A truncated or corrupt gathered payload must not become a garbage model
    // fed into the split: degrade to plain size balancing for that rank.
    LinearModel identity;
    return sanitize(identity);
  }
  return m;
}

LinearModel LoadBalancer::sanitize(const LinearModel& m) {
  LinearModel out = m;
  if (!m.usable() || m.b <= 0.0) {
    out.a = 0.0;
    out.b = 1.0;  // plain size balancing
    out.n = 0;
  }
  return out;
}

std::vector<int> LoadBalancer::assign(const std::vector<double>& item_weights,
                                      const std::vector<LinearModel>& models,
                                      std::vector<double> current_finish) {
  const size_t nranks = models.size();
  std::vector<int> owner(item_weights.size(), 0);
  if (nranks == 0) return owner;
  if (current_finish.size() < nranks) current_finish.resize(nranks, 0.0);

  std::vector<LinearModel> m(nranks);
  for (size_t i = 0; i < nranks; ++i) m[i] = sanitize(models[i]);

  // Heaviest items first (LPT), deterministic tie-break by index.
  std::vector<size_t> order(item_weights.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return item_weights[a] > item_weights[b];
  });

  // The fitted model is t = a + b·D: `a` is the rank's fixed startup cost,
  // paid once when the rank takes its first work. Ranks arriving with
  // current_finish > 0 already have work in flight, so their intercept is
  // sunk; an idle rank's candidate finish must include it, or slow-start
  // ranks (large a, small b) get over-assigned.
  std::vector<char> started(nranks, 0);
  for (size_t r = 0; r < nranks; ++r) {
    started[r] = current_finish[r] > 0.0 ? 1 : 0;
  }

  for (size_t idx : order) {
    size_t best = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < nranks; ++r) {
      const double intercept = started[r] ? 0.0 : m[r].a;
      const double f = current_finish[r] + intercept + m[r].b * item_weights[idx];
      if (f < best_finish) {
        best_finish = f;
        best = r;
      }
    }
    owner[idx] = static_cast<int>(best);
    current_finish[best] = best_finish;
    started[best] = 1;
  }
  return owner;
}

}  // namespace ftmr::core
