#include "simmpi/job.hpp"

#include <algorithm>
#include <string>

namespace ftmr::simmpi {

double CollectiveSlot::latest_arrival() const {
  double t = 0.0;
  for (const Member& m : members) t = std::max(t, m.arrive_vtime);
  return t;
}

void CollectiveSlot::finish_all(double t) {
  for (Member& m : members) m.done_vtime = t;
}

void CollectiveSlot::finish_all(double t, Bytes result) {
  finish_all(t);
  shared_result = std::make_shared<const Bytes>(std::move(result));
}

Job::Job(int nranks_, JobOptions opts_)
    : nranks(nranks_), opts(std::move(opts_)), recv_ch(nranks_), ranks(nranks_) {
  inboxes.reserve(static_cast<size_t>(nranks_));
  for (int i = 0; i < nranks_; ++i) {
    inboxes.push_back(std::make_unique<Inbox>());
  }
  for (const KillEvent& k : opts.kills) {
    if (k.rank < 0 || k.rank >= nranks) continue;
    if (k.vtime >= 0.0) ranks[k.rank].kill_vtime = k.vtime;
    if (k.after_ops >= 0) ranks[k.rank].kill_after_ops = k.after_ops;
  }
}

void Job::die_locked(int rank) {
  RankState& st = ranks[rank];
  if (!st.alive) return;
  st.alive = false;
  st.killed = true;
  // Runs under mu: the hook's effects (e.g. wiping the rank's replica
  // memory) are atomic with the death itself, so no peer can observe a
  // dead rank with live replicas. The hook must not re-enter simmpi.
  if (opts.on_rank_death) opts.on_rank_death(rank);
  // Death can unblock any predicate (recv from the dead rank, collective
  // membership, tolerant-collective failure observation): broadcast.
  wake_all();
}

void Job::check_callable(int rank) {
  MutexLock lock(mu);
  check_callable_locked(rank);
  RankState& st = ranks[rank];
  st.op_count++;
  if (st.kill_after_ops >= 0 && st.op_count >= st.kill_after_ops) {
    die_locked(rank);
    throw KilledError();
  }
  check_vtime_kill_locked(rank);
}

void Job::check_callable_locked(int rank) {
  if (aborted) throw AbortError(abort_code);
  if (!ranks[rank].alive) throw KilledError();
}

void Job::check_vtime_kill(int rank) {
  MutexLock lock(mu);
  if (!ranks[rank].alive) throw KilledError();
  check_vtime_kill_locked(rank);
}

void Job::check_vtime_kill_locked(int rank) {
  RankState& st = ranks[rank];
  if (st.kill_vtime >= 0.0 && st.vtime >= st.kill_vtime) {
    die_locked(rank);
    throw KilledError();
  }
}

Status Job::peer_status_locked(const CommState& cs, int peer, std::string_view op) const {
  if (peer < 0 || peer >= cs.size()) {
    return {ErrorCode::kInvalidArgument, std::string(op) + ": bad peer rank"};
  }
  if (cs.revoked) return {ErrorCode::kRevoked, std::string(op) + " on revoked comm"};
  if (!ranks[cs.group[peer]].alive) {
    return {ErrorCode::kProcFailed, std::string(op) + ": peer is dead"};
  }
  return Status::Ok();
}

std::deque<Message>::iterator Job::match_message_locked(int rank, uint64_t ctx, int src,
                                                        int tag, MessageInfo* info) {
  std::deque<Message>& box = ranks[rank].mailbox;
  {
    Inbox& inbox = *inboxes[rank];
    MutexLock il(inbox.mu);
    inbox.waiting = false;
    for (Message& m : inbox.staged) box.push_back(std::move(m));
    inbox.staged.clear();
  }
  auto it = std::find_if(box.begin(), box.end(), [&](const Message& m) {
    return m.ctx == ctx && (src == kAnySource || m.src_rel == src) &&
           (tag == kAnyTag || m.tag == tag);
  });
  if (it != box.end() && info != nullptr) {
    info->source = it->src_rel;
    info->tag = it->tag;
    info->size = it->payload.size();
  }
  return it;
}

uint64_t Job::register_comm_locked(std::vector<int> group, bool accounts_time) {
  auto cs = std::make_shared<CommState>();
  cs->ctx = alloc_ctx_locked();
  cs->group = std::move(group);
  cs->rel_of.assign(nranks, -1);
  for (int rel = 0; rel < cs->size(); ++rel) cs->rel_of[cs->group[rel]] = rel;
  cs->accounts_time = accounts_time;
  comms[cs->ctx] = cs;
  return cs->ctx;
}

std::shared_ptr<CollectiveSlot> Job::join_slot_locked(const SlotKey& key,
                                                      const CommState& cs, int rel,
                                                      const CollectiveSig& sig,
                                                      Bytes contribution) {
  auto& slot = slots[key];
  if (!slot) {
    slot = std::make_shared<CollectiveSlot>();
    slot->sig = sig;
    slot->members.resize(cs.size());
  } else if (!(slot->sig == sig)) {
    slot->mismatched = true;
  }
  CollectiveSlot::Member& m = slot->members[rel];
  m.arrived = true;
  m.contrib = std::move(contribution);
  m.arrive_vtime = cs.accounts_time ? ranks[cs.group[rel]].vtime : 0.0;
  // No wake here: intermediate arrivals don't change a parked waiter's
  // predicate (it waits for `computed`; deaths/revokes broadcast via
  // wake_all). The last arriver runs the completion check inline —
  // waking k parked peers per arrival is an O(n^2) thundering herd at
  // thousands of ranks.
  return slot;
}

bool Job::settled_locked(CollectiveSlot& slot, const CommState& cs) {
  // A group index is settled once it arrived or died — both monotone, so
  // the cursor never moves backwards.
  int& cur = slot.scan_cursor;
  const int p = cs.size();
  while (cur < p && (slot.members[cur].arrived || !ranks[cs.group[cur]].alive)) {
    ++cur;
  }
  return cur >= p;
}

Job::Pickup Job::pickup_locked(CollectiveSlot& slot, const CommState& cs, int rel) {
  CollectiveSlot::Member& m = slot.members[rel];
  if (cs.accounts_time) {
    double& vtime = ranks[cs.group[rel]].vtime;
    vtime = std::max(vtime, m.done_vtime);
  }
  return {slot.shared_result, std::move(m.result), std::move(m.row), slot.failed};
}

std::vector<int> Job::dead_in_locked(const CommState& cs) const {
  std::vector<int> dead;
  for (int g : cs.group) {
    if (!ranks[g].alive) dead.push_back(g);
  }
  return dead;
}

bool Job::any_dead_in_locked(const CommState& cs) const {
  return std::any_of(cs.group.begin(), cs.group.end(),
                     [this](int g) { return !ranks[g].alive; });
}

std::vector<int> Job::unacked_dead_locked(int rank, const CommState& cs) const {
  std::vector<int> dead = dead_in_locked(cs);
  auto it = ranks[rank].acked.find(cs.ctx);
  if (it == ranks[rank].acked.end()) return dead;
  std::vector<int> out;
  for (int g : dead) {
    if (std::find(it->second.begin(), it->second.end(), g) == it->second.end()) {
      out.push_back(g);
    }
  }
  return out;
}

void Job::abort_job(int code) {
  MutexLock lock(mu);
  if (!aborted) {
    aborted = true;
    abort_code = code;
  }
  wake_all();
}

bool Job::wait_blocked(WaitChannel& ch) { return sched->park(ch, mu); }

void Job::wake_channel(WaitChannel& ch) { sched->wake(ch); }

void Job::wake_all() { sched->wake_all_parked(); }

}  // namespace ftmr::simmpi
