#include "core/iterjob.hpp"

#include <algorithm>
#include <string>

#include "simmpi/types.hpp"

namespace ftmr::core {

bool IterDriver::round_done(const FtJob& job, int round) const {
  const int s0 = first_stage_of_round(round);
  for (int s = s0; s < s0 + stages_in_round(round); ++s) {
    if (job.stage_phase(s) != FtJob::kPhaseDone) return false;
  }
  return true;
}

bool IterDriver::round_fresh(const FtJob& job, int round) const {
  const int s0 = first_stage_of_round(round);
  for (int s = s0; s < s0 + stages_in_round(round); ++s) {
    if (job.stage_phase(s) >= 0) return false;
  }
  return true;
}

void IterDriver::log_exec(int round) {
  if (spec_.log == nullptr) return;
  std::vector<int>& subs = spec_.log->exec_submissions[round];
  if (subs.empty() || subs.back() != spec_.submission) {
    subs.push_back(spec_.submission);
  }
}

void IterDriver::log_done(int round) {
  if (spec_.log == nullptr) return;
  spec_.log->first_completed_submission.emplace(round, spec_.submission);
}

Status IterDriver::run(FtJob& job) {
  stats_.rounds_total = rounds();
  // A pass that follows a recovery — or the first pass of a submission that
  // primed itself from checkpoints — is a post-failure replay: any partial
  // round it executes is a re-execution charged to the failure.
  const bool post_failure =
      job.recoveries() > recoveries_seen_ ||
      (first_pass_ && job.resumed_from_checkpoint());
  if (first_pass_ && spec_.log != nullptr) {
    spec_.log->primed.emplace(spec_.submission, job.resumed_from_checkpoint());
  }
  // Every rank of a resubmission joins the mutation's agreement, primed or
  // not (a rank with no checkpoint of its own primes nothing): it is a
  // collective, so a rank-local condition would mismatch it.
  const bool restart_pass = first_pass_ && spec_.submission > 0;
  recoveries_seen_ = job.recoveries();
  first_pass_ = false;

  if (job.options().testing_break_iteration_reuse &&
      (post_failure || restart_pass) && !mutation_fired_) {
    // Deliberately break reuse: invalidate the newest fully-completed round
    // so this replay re-executes it. Re-execution replays the round's
    // collectives, so every rank must pick the same victim — agree on the
    // minimum locally-done frontier (ranks can disagree by one round when
    // the failure struck a round boundary). If the agreement itself hits a
    // failure, skip this pass; a later replay fires the mutation instead.
    int64_t frontier = 0;
    while (frontier < rounds() && round_done(job, static_cast<int>(frontier))) {
      ++frontier;
    }
    int64_t agreed = 0;
    if (job.work_comm()
            .allreduce_one(simmpi::ReduceOp::kMin, frontier, agreed)
            .ok() &&
        agreed > 0) {
      const int victim = static_cast<int>(agreed) - 1;
      const int s0 = first_stage_of_round(victim);
      for (int s = s0; s < s0 + stages_in_round(victim); ++s) {
        job.testing_invalidate_stage(s);
      }
      mutation_fired_ = true;
    }
  }

  for (int r = 0; r < rounds(); ++r) {
    const bool done = round_done(job, r);
    const std::string tag = std::to_string(r);
    if (done) {
      // Fast-forward: every stage of the round replays from retained or
      // recovered kPhaseDone state; run_stage() below does no work.
      job.trace().instant("iter.ff/" + tag, "iter", job.work_comm().now());
      stats_.rounds_fast_forwarded++;
    } else {
      job.trace().instant("iter.exec/" + tag, "iter", job.work_comm().now());
      stats_.rounds_executed++;
      stats_.execs_per_round[r]++;
      if (post_failure && !round_fresh(job, r)) {
        stats_.rounds_reexecuted_after_failure++;
      }
      log_exec(r);
    }
    const int ns = stages_in_round(r);
    for (int i = 0; i < ns; ++i) {
      const StageFns& fns = r == 0 ? spec_.init : spec_.iter_stages[static_cast<size_t>(i)];
      if (auto s = job.run_stage(fns, r != 0, nullptr); !s.ok()) return s;
    }
    // "done" instants are emitted on *every* encounter (first completion
    // and later fast-forwards alike); the reuse invariant keys off merged
    // record order per rank, so an exec after any done is a violation.
    job.trace().instant("iter.done/" + tag, "iter", job.work_comm().now());
    log_done(r);

    if (spec_.release_superseded_memory && job.options().ckpt.enabled &&
        job.options().ckpt.memory_replication_k > 0) {
      // Round r is the converged frontier: pin its blobs (rereplicate heals
      // them first) and release the memory replicas of rounds before it —
      // the in-flight round r+1 only ever recovers from round r's outputs
      // and its own chains; older rounds stay on the file tiers.
      CheckpointManager& ck = job.ckpt();
      const int s0 = first_stage_of_round(r);
      for (int s = s0; s < s0 + ns; ++s) ck.pin_stage_memory(s);
      stats_.memory_blobs_released += ck.release_stage_memory(s0);
      if (spec_.log != nullptr) {
        spec_.log->released_below_stage = ck.released_below_stage();
      }
    }
  }
  return spec_.write_output ? job.write_output() : Status::Ok();
}

}  // namespace ftmr::core
