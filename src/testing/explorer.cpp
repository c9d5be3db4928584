#include "testing/explorer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "apps/graph.hpp"
#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/ftjob.hpp"
#include "core/iterjob.hpp"
#include "mr/accounting.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"
#include "storage/storage.hpp"

namespace ftmr::testing {

namespace {

core::FtMode mode_from_string(const std::string& m) {
  if (m == "cr") return core::FtMode::kCheckpointRestart;
  if (m == "nwc") return core::FtMode::kDetectResumeNWC;
  return core::FtMode::kDetectResumeWC;
}

/// Decode the job's length-prefixed output partitions into word -> count.
std::map<std::string, int64_t> read_counts(storage::StorageSystem& fs) {
  std::vector<std::string> parts;
  (void)fs.list_dir(storage::Tier::kShared, 0, "output", parts);
  std::map<std::string, int64_t> counts;
  for (const auto& name : parts) {
    Bytes data;
    (void)fs.read_file(storage::Tier::kShared, 0, "output/" + name, data);
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
      counts[k] += std::strtoll(v.c_str(), nullptr, 10);
    }
  }
  return counts;
}

/// Decode a graph app's output into key -> leading integer field (SSSP
/// distance, CC label, triangle count). Unlike wordcount, values here are
/// *state*, not additive counts — a key appearing in more than one output
/// record is itself an exactness violation, reported directly rather than
/// summed into a confusing total.
std::map<std::string, int64_t> read_graph_output(storage::StorageSystem& fs,
                                                 std::vector<Violation>& out) {
  std::vector<std::string> parts;
  (void)fs.list_dir(storage::Tier::kShared, 0, "output", parts);
  std::map<std::string, int64_t> vals;
  for (const auto& name : parts) {
    Bytes data;
    (void)fs.read_file(storage::Tier::kShared, 0, "output/" + name, data);
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
      if (!vals.emplace(k, apps::sssp_parse_dist(v)).second) {
        out.push_back({"output-exactness",
                       "key '" + k + "' appears in more than one output "
                       "record — records duplicated"});
      }
    }
  }
  return vals;
}

// ---------------------------------------------------------------------------
// Artifact JSON: hand-rolled writer + minimal recursive-descent reader (the
// repo deliberately has no third-party JSON dependency). The reader supports
// exactly the subset the writer emits: objects, arrays, strings with
// \"\\/bfnrt escapes, integer/float numbers, true/false/null.
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] int64_t as_i64(int64_t dflt) const {
    return kind == Kind::kNumber ? static_cast<int64_t>(num) : dflt;
  }
  [[nodiscard]] double as_double(double dflt) const {
    return kind == Kind::kNumber ? num : dflt;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Status parse(JsonValue& out) {
    if (auto st = value(out); !st.ok()) return st;
    skip_ws();
    if (pos_ != s_.size()) {
      return {ErrorCode::kInvalidArgument, "json: trailing characters"};
    }
    return Status::Ok();
  }

 private:
  Status err(const char* what) const {
    return {ErrorCode::kInvalidArgument,
            std::string("json: ") + what + " at offset " + std::to_string(pos_)};
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return err("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.str);
    }
    if (c == 't' || c == 'f') return boolean(out);
    if (c == 'n') return null(out);
    return number(out);
  }

  Status object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!eat('{')) return err("expected '{'");
    if (eat('}')) return Status::Ok();
    for (;;) {
      std::string key;
      skip_ws();
      if (auto st = string(key); !st.ok()) return st;
      if (!eat(':')) return err("expected ':'");
      JsonValue v;
      if (auto st = value(v); !st.ok()) return st;
      out.obj.emplace_back(std::move(key), std::move(v));
      if (eat(',')) continue;
      if (eat('}')) return Status::Ok();
      return err("expected ',' or '}'");
    }
  }

  Status array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!eat('[')) return err("expected '['");
    if (eat(']')) return Status::Ok();
    for (;;) {
      JsonValue v;
      if (auto st = value(v); !st.ok()) return st;
      out.arr.push_back(std::move(v));
      if (eat(',')) continue;
      if (eat(']')) return Status::Ok();
      return err("expected ',' or ']'");
    }
  }

  Status string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return err("expected string");
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return err("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return err("bad \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return err("bad \\u escape");
          }
          // Artifacts only ever escape control bytes; reject the rest.
          if (v > 0x7f) return err("non-ASCII \\u escape unsupported");
          out += static_cast<char>(v);
          break;
        }
        default: return err("unknown escape");
      }
    }
    return err("unterminated string");
  }

  Status boolean(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      out.b = true;
      pos_ += 4;
      return Status::Ok();
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.b = false;
      pos_ += 5;
      return Status::Ok();
    }
    return err("expected boolean");
  }

  Status null(JsonValue& out) {
    out.kind = JsonValue::Kind::kNull;
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Status::Ok();
    }
    return err("expected null");
  }

  Status number(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return err("expected number");
    out.num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return Status::Ok();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string format_double(double v) {
  // Integral-valued doubles print without a fraction (op indexes, seeds).
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Artifact serialization
// ---------------------------------------------------------------------------

std::string Explorer::artifact_json(const FaultSchedule& schedule,
                                    const ExplorerWorkload& w,
                                    bool break_recovery,
                                    bool break_iteration_reuse,
                                    const std::vector<Violation>& violations) {
  std::string j = "{\n";
  j += "  \"version\": 1,\n";
  j += "  \"label\": \"" + json_escape(schedule.label) + "\",\n";
  j += "  \"mode\": \"" + json_escape(schedule.mode) + "\",\n";
  j += "  \"seed\": " + std::to_string(schedule.seed) + ",\n";
  j += std::string("  \"break_recovery\": ") +
       (break_recovery ? "true" : "false") + ",\n";
  j += std::string("  \"break_iteration_reuse\": ") +
       (break_iteration_reuse ? "true" : "false") + ",\n";
  j += "  \"workload\": {\"app\": \"" + json_escape(w.app) + "\"" +
       ", \"nranks\": " + std::to_string(w.nranks) +
       ", \"chunks\": " + std::to_string(w.chunks) +
       ", \"lines_per_chunk\": " + std::to_string(w.lines_per_chunk) +
       ", \"words_per_line\": " + std::to_string(w.words_per_line) +
       ", \"vocabulary\": " + std::to_string(w.vocabulary) +
       ", \"graph_nodes\": " + std::to_string(w.graph_nodes) +
       ", \"graph_max_weight\": " + std::to_string(w.graph_max_weight) +
       ", \"iterations\": " + std::to_string(w.iterations) +
       ", \"sssp_source\": " + std::to_string(w.sssp_source) +
       ", \"records_per_ckpt\": " + std::to_string(w.records_per_ckpt) +
       ", \"memory_replication_k\": " + std::to_string(w.memory_replication_k) +
       ", \"memory_budget\": " + std::to_string(w.memory_budget) +
       ", \"ppn\": " + std::to_string(w.ppn) +
       ", \"max_submissions\": " + std::to_string(w.max_submissions) +
       ", \"deadlock_timeout_s\": " + format_double(w.deadlock_timeout_s) +
       "},\n";
  j += "  \"kills\": [";
  for (size_t i = 0; i < schedule.kills.size(); ++i) {
    const KillSpec& k = schedule.kills[i];
    if (i) j += ", ";
    j += "{\"rank\": " + std::to_string(k.rank) +
         ", \"after_ops\": " + std::to_string(k.after_ops) +
         ", \"vtime\": " + format_double(k.vtime) +
         ", \"submission\": " + std::to_string(k.submission) + "}";
  }
  j += "],\n";
  j += "  \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i) j += ", ";
    j += "\"" + json_escape(violations[i].invariant + ": " +
                            violations[i].detail) + "\"";
  }
  j += "]\n}\n";
  return j;
}

Status Explorer::artifact_parse(const std::string& json, FaultSchedule& schedule,
                                ExplorerWorkload& workload,
                                bool* break_recovery,
                                bool* break_iteration_reuse) {
  JsonValue root;
  if (auto s = JsonParser(json).parse(root); !s.ok()) return s;
  if (root.kind != JsonValue::Kind::kObject) {
    return {ErrorCode::kInvalidArgument, "artifact: top level is not an object"};
  }
  if (const JsonValue* v = root.find("version");
      v == nullptr || v->as_i64(0) != 1) {
    return {ErrorCode::kInvalidArgument, "artifact: missing/unknown version"};
  }
  schedule = FaultSchedule{};
  if (const JsonValue* v = root.find("label")) schedule.label = v->str;
  if (const JsonValue* v = root.find("mode")) schedule.mode = v->str;
  if (schedule.mode != "cr" && schedule.mode != "wc" && schedule.mode != "nwc") {
    return {ErrorCode::kInvalidArgument,
            "artifact: mode must be cr|wc|nwc, got '" + schedule.mode + "'"};
  }
  if (const JsonValue* v = root.find("seed")) {
    schedule.seed = static_cast<uint64_t>(v->as_i64(1));
  }
  if (break_recovery != nullptr) {
    const JsonValue* v = root.find("break_recovery");
    *break_recovery = v != nullptr && v->kind == JsonValue::Kind::kBool && v->b;
  }
  if (break_iteration_reuse != nullptr) {
    const JsonValue* v = root.find("break_iteration_reuse");
    *break_iteration_reuse =
        v != nullptr && v->kind == JsonValue::Kind::kBool && v->b;
  }
  workload = ExplorerWorkload{};
  if (const JsonValue* w = root.find("workload");
      w != nullptr && w->kind == JsonValue::Kind::kObject) {
    auto geti = [&](const char* key, auto dflt) {
      const JsonValue* v = w->find(key);
      return v ? static_cast<decltype(dflt)>(v->as_i64(dflt)) : dflt;
    };
    if (const JsonValue* v = w->find("app");
        v != nullptr && v->kind == JsonValue::Kind::kString) {
      workload.app = v->str;
    }
    if (workload.app != "wc" && workload.app != "sssp" &&
        workload.app != "cc" && workload.app != "tri") {
      return {ErrorCode::kInvalidArgument,
              "artifact: app must be wc|sssp|cc|tri, got '" + workload.app +
                  "'"};
    }
    workload.graph_nodes = geti("graph_nodes", workload.graph_nodes);
    workload.graph_max_weight =
        geti("graph_max_weight", workload.graph_max_weight);
    workload.iterations = geti("iterations", workload.iterations);
    workload.sssp_source = geti("sssp_source", workload.sssp_source);
    workload.nranks = geti("nranks", workload.nranks);
    workload.chunks = geti("chunks", workload.chunks);
    workload.lines_per_chunk = geti("lines_per_chunk", workload.lines_per_chunk);
    workload.words_per_line = geti("words_per_line", workload.words_per_line);
    workload.vocabulary = geti("vocabulary", workload.vocabulary);
    workload.records_per_ckpt =
        geti("records_per_ckpt", workload.records_per_ckpt);
    workload.memory_replication_k =
        geti("memory_replication_k", workload.memory_replication_k);
    workload.memory_budget = geti("memory_budget", workload.memory_budget);
    workload.ppn = geti("ppn", workload.ppn);
    workload.max_submissions = geti("max_submissions", workload.max_submissions);
    if (const JsonValue* v = w->find("deadlock_timeout_s")) {
      workload.deadlock_timeout_s = v->as_double(workload.deadlock_timeout_s);
    }
  }
  if (const JsonValue* ks = root.find("kills")) {
    if (ks->kind != JsonValue::Kind::kArray) {
      return {ErrorCode::kInvalidArgument, "artifact: kills is not an array"};
    }
    for (const JsonValue& kv : ks->arr) {
      if (kv.kind != JsonValue::Kind::kObject) {
        return {ErrorCode::kInvalidArgument, "artifact: kill is not an object"};
      }
      KillSpec k;
      if (const JsonValue* v = kv.find("rank")) k.rank = static_cast<int>(v->as_i64(-1));
      if (const JsonValue* v = kv.find("after_ops")) k.after_ops = v->as_i64(-1);
      if (const JsonValue* v = kv.find("vtime")) k.vtime = v->as_double(-1.0);
      if (const JsonValue* v = kv.find("submission")) {
        k.submission = static_cast<int>(v->as_i64(0));
      }
      if (k.rank < 0 || k.rank >= workload.nranks) {
        return {ErrorCode::kInvalidArgument,
                "artifact: kill rank " + std::to_string(k.rank) +
                " out of range for nranks=" + std::to_string(workload.nranks)};
      }
      schedule.kills.push_back(k);
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Explorer::Explorer(ExplorerOptions opts) : opts_(std::move(opts)) {}

RunReport Explorer::run_schedule(const FaultSchedule& schedule,
                                 std::vector<metrics::TraceEvent>* trace_out) {
  const ExplorerWorkload& w = opts_.workload;
  RunReport rep;
  rep.schedule = schedule;

  storage::TempDir tmp("ftmr-explore");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);

  // -- workload input + ground truth --
  const bool graph_app = w.app != "wc";
  std::map<std::string, int64_t> expected;
  if (!graph_app) {
    apps::TextGenOptions tg;
    tg.nchunks = w.chunks;
    tg.lines_per_chunk = w.lines_per_chunk;
    tg.words_per_line = w.words_per_line;
    tg.vocabulary = w.vocabulary;
    if (auto s = apps::generate_text(fs, tg, &expected); !s.ok()) {
      rep.violations.push_back({"harness", "textgen failed: " + s.to_string()});
      return rep;
    }
  } else {
    apps::GraphGenOptions gg;
    gg.nodes = w.graph_nodes;
    gg.nchunks = w.chunks;
    gg.seed = schedule.seed;
    apps::WAdjacency adj;
    if (auto s = apps::generate_weighted_graph(fs, gg, w.graph_max_weight, &adj);
        !s.ok()) {
      rep.violations.push_back({"harness", "graphgen failed: " + s.to_string()});
      return rep;
    }
    if (w.app == "sssp") {
      const std::vector<int64_t> d =
          apps::sssp_reference(adj, w.sssp_source, w.iterations);
      for (size_t i = 0; i < d.size(); ++i) {
        expected[std::to_string(i)] = d[i];
      }
    } else if (w.app == "cc") {
      const std::vector<int64_t> l = apps::cc_reference(adj, w.iterations);
      for (size_t i = 0; i < l.size(); ++i) {
        expected[std::to_string(i)] = l[i];
      }
    } else if (w.app == "tri") {
      expected = apps::tri_reference(adj);
    } else {
      rep.violations.push_back({"harness", "unknown app '" + w.app + "'"});
      return rep;
    }
  }

  core::FtJobOptions opts;
  opts.mode = mode_from_string(schedule.mode);
  opts.ppn = w.ppn;
  opts.ckpt.records_per_ckpt = w.records_per_ckpt;
  opts.ckpt.memory_replication_k = w.memory_replication_k;
  if (w.memory_budget > 0) {
    opts.memory_budget = static_cast<size_t>(w.memory_budget);
  }
  if (opts.mode == core::FtMode::kDetectResumeNWC) opts.ckpt.enabled = false;
  opts.testing_break_recovery = opts_.break_recovery;
  opts.testing_break_iteration_reuse = opts_.break_iteration_reuse;

  const core::StageFns stage = apps::wordcount_stage();
  auto driver = [&stage](core::FtJob& job) -> Status {
    if (auto s = job.run_stage(stage, false, nullptr); !s.ok()) return s;
    return job.write_output();
  };
  auto make_spec = [&w]() -> core::IterSpec {
    if (w.app == "sssp") return apps::sssp_spec(w.sssp_source, w.iterations);
    if (w.app == "cc") return apps::cc_spec(w.iterations);
    return apps::tri_spec();
  };
  // One round-log slot per rank, written live by the engine; persists
  // across CR resubmissions so the cross-submission half of the reuse
  // invariant sees the whole run (slots are rank-confined, no lock).
  std::vector<core::IterRoundLog> iter_logs(
      static_cast<size_t>(w.nranks));

  const mr::RecordLedger before = mr::ledger_snapshot(w.nranks);

  metrics::TraceRecorder trace;
  simmpi::JobResult last;
  std::vector<RankObservation> obs;
  std::set<int> killed_ever;
  for (;;) {
    ++rep.submissions;
    // A resubmission is a fresh incarnation: peer RAM does not survive the
    // job, so the replica store starts empty (recovery must come from files).
    if (rep.submissions > 1) fs.memory().wipe_all();
    simmpi::JobOptions sim;
    sim.deadlock_timeout_s = w.deadlock_timeout_s;
    // Death wipes the rank's replica holdings atomically (under the job
    // lock), so no survivor can fetch from a dead peer's memory.
    sim.on_rank_death = [&fs](int r) { fs.memory().wipe_rank(r); };
    for (const KillSpec& k : schedule.kills) {
      if (k.submission == rep.submissions - 1) {
        sim.kills.push_back({k.rank, k.vtime, k.after_ops});
      }
    }
    // One pre-sized slot per rank: rank threads write disjoint elements, so
    // no lock is needed; the vector itself is never resized while they run.
    obs.assign(static_cast<size_t>(w.nranks), RankObservation{});
    if (rep.submissions > 1) trace.clear();  // only the final submission's
    last = simmpi::Runtime::run(
        w.nranks,
        [&](simmpi::Comm& c) {
          core::FtJob job(c, &fs, opts);
          Status s;
          if (graph_app) {
            // Fresh engine per submission (an incarnation's stats die with
            // it), but the round log outlives submissions via iter_logs.
            core::IterSpec spec = make_spec();
            spec.submission = rep.submissions - 1;
            spec.log = &iter_logs[static_cast<size_t>(c.rank())];
            auto engine = std::make_shared<core::IterDriver>(std::move(spec));
            s = job.run(core::IterDriver::as_driver(std::move(engine)));
          } else {
            s = job.run(driver);
          }
          RankObservation& o = obs[static_cast<size_t>(c.rank())];
          o.ran = true;
          o.status_ok = s.ok();
          o.status = s.to_string();
          o.recoveries = job.recoveries();
          o.final_comm_size = job.work_comm().valid() ? job.work_comm().size() : -1;
          o.partition_owners = job.partition_owners();
          o.task_reassign = job.task_reassignments();
          o.known_dead = job.known_dead();
          trace.merge(job.trace());
        },
        sim);
    for (int r = 0; r < w.nranks; ++r) {
      if (last.ranks[static_cast<size_t>(r)].killed) killed_ever.insert(r);
    }
    if (!last.aborted) break;
    if (rep.submissions >= w.max_submissions) {
      rep.violations.push_back(
          {"run-completion",
           "job still aborting after " + std::to_string(rep.submissions) +
               " submissions (restart does not converge)"});
      return rep;
    }
  }
  rep.completed = true;

  // -- invariants --
  check_run_outcome(last, obs, rep.violations);
  // Nothing outside the schedule may die: a kill of an unscheduled rank
  // would mean the fault injector itself is broken.
  std::set<int> scheduled;
  for (const KillSpec& k : schedule.kills) scheduled.insert(k.rank);
  for (int r : killed_ever) {
    if (!scheduled.count(r)) {
      rep.violations.push_back(
          {"run-completion",
           "rank " + std::to_string(r) + " was killed but never scheduled"});
    }
  }
  if (graph_app) {
    check_output_exact(expected, read_graph_output(fs, rep.violations),
                       rep.violations);
  } else {
    check_output_exact(expected, read_counts(fs), rep.violations);
  }
  const bool single_incarnation = killed_ever.empty() && rep.submissions == 1;
  check_checkpoint_chains(fs, w.nranks, w.ppn, single_incarnation,
                          rep.violations);
  if (graph_app && schedule.mode != "nwc") {
    // The reuse contract holds for WC (retained state) and CR (checkpoint
    // priming); NWC multi-stage recovery falls back to stage 0 by design.
    check_iteration_reuse(trace.events(), iter_logs, rep.violations);
  }
  if (opts.ckpt.enabled && w.memory_replication_k > 0) {
    // Census = the union of what surviving ranks know died; kills the
    // survivors never detected (post-last-collective tail deaths) become
    // slack in the coverage requirement.
    std::set<int> census;
    for (const RankObservation& o : obs) {
      if (o.ran) census.insert(o.known_dead.begin(), o.known_dead.end());
    }
    // The iterative engine releases superseded rounds' memory replicas on
    // purpose; each rank's release frontier exempts those blobs.
    std::vector<int> released_below;
    if (graph_app) {
      for (const core::IterRoundLog& l : iter_logs) {
        released_below.push_back(l.released_below_stage);
      }
    }
    check_replica_coverage(fs, w.nranks, w.ppn, w.memory_replication_k,
                           killed_ever, census, rep.submissions == 1,
                           released_below, rep.violations);
  }
  if (schedule.kills.empty() && !graph_app) {
    // Conservation laws only balance failure-free on the single-stage
    // wordcount (re-execution and multi-round KV chaining legitimately
    // unbalance the taps).
    check_record_conservation(mr::ledger_snapshot(w.nranks).delta_since(before),
                              stage.combine != nullptr, rep.violations);
  }

  if (trace_out != nullptr) *trace_out = trace.events();
  // Stash per-rank op totals for the harvester (meaningful golden-run only).
  if (schedule.kills.empty()) {
    golden_ops_.assign(static_cast<size_t>(w.nranks), 0);
    for (int r = 0; r < w.nranks; ++r) {
      golden_ops_[static_cast<size_t>(r)] = last.ranks[static_cast<size_t>(r)].ops;
    }
  }
  return rep;
}

Status Explorer::harvest() {
  FaultSchedule golden;
  golden.label = "golden";
  golden.mode = opts_.mode;
  golden.seed = opts_.seed;

  std::vector<metrics::TraceEvent> events;
  RunReport rep = run_schedule(golden, &events);
  if (!rep.violations.empty()) {
    std::string d;
    for (const Violation& v : rep.violations) {
      d += "\n  " + v.invariant + ": " + v.detail;
    }
    return {ErrorCode::kInternal, "golden run violates invariants:" + d};
  }

  // Candidate kill points: the op index of every span/instant the job
  // recorded — phase boundaries, checkpoint frames, shuffle and master ops,
  // and (iterative engine) round boundaries, so sweeps land kills exactly
  // between iterations.
  static constexpr std::string_view kCats[] = {"phase", "ckpt", "shuffle",
                                               "master", "iter"};
  std::map<int64_t, std::string> by_op;
  for (const metrics::TraceEvent& e : events) {
    if (e.op < 1) continue;
    bool wanted = false;
    for (std::string_view c : kCats) wanted = wanted || e.cat == c;
    if (!wanted) continue;
    // First writer wins, except that a round boundary takes over the label
    // of the op it shares: a round starts and ends on a phase event's op.
    auto [it, fresh] = by_op.emplace(e.op, e.cat + ":" + e.name);
    if (!fresh && e.cat == "iter" && !it->second.starts_with("iter:")) {
      it->second = e.cat + ":" + e.name;
    }
  }
  // Boundary ops: the very first calls (the job's first collectives) and
  // each rank's final op, which no trace event lands exactly on.
  by_op.emplace(1, "boundary:first-op");
  by_op.emplace(2, "boundary:second-op");
  for (int64_t total : golden_ops_) {
    if (total >= 1) by_op.emplace(total, "boundary:last-op");
  }
  candidates_.clear();
  for (auto& [op, source] : by_op) candidates_.push_back({op, source});
  harvested_ = true;
  return Status::Ok();
}

std::vector<FaultSchedule> Explorer::single_kill_schedules() const {
  const ExplorerWorkload& w = opts_.workload;
  std::vector<FaultSchedule> out;
  for (const Candidate& c : candidates_) {
    for (int r = 0; r < w.nranks; ++r) {
      // A kill past the rank's golden op total would never fire: the rank
      // finishes first. (Failure runs can push a rank past its golden
      // total, but the single-kill sweep starts from the golden horizon.)
      if (c.op > golden_ops_[static_cast<size_t>(r)]) continue;
      FaultSchedule s;
      s.label = "single/r" + std::to_string(r) + "/op" + std::to_string(c.op);
      s.mode = opts_.mode;
      s.seed = opts_.seed;
      s.kills.push_back({r, c.op, -1.0, 0});
      out.push_back(std::move(s));
    }
  }
  const int cap = opts_.max_single_kill_runs;
  if (cap > 0 && static_cast<int>(out.size()) > cap) {
    // Even subsample across the whole sweep — never truncate the tail, the
    // late (reduce/output) kill points are the interesting ones.
    std::vector<FaultSchedule> picked;
    picked.reserve(static_cast<size_t>(cap));
    const double stride = static_cast<double>(out.size()) / cap;
    for (int i = 0; i < cap; ++i) {
      picked.push_back(out[static_cast<size_t>(i * stride)]);
    }
    out = std::move(picked);
  }
  return out;
}

std::vector<FaultSchedule> Explorer::multi_kill_schedules() const {
  const ExplorerWorkload& w = opts_.workload;
  std::vector<FaultSchedule> out;
  if (opts_.multi_kill_schedules <= 0 || candidates_.empty() || w.nranks < 3) {
    return out;
  }
  Rng rng(opts_.seed);
  const int max_kills =
      std::min(std::max(2, opts_.max_kills_per_schedule), w.nranks - 1);
  for (int i = 0; i < opts_.multi_kill_schedules; ++i) {
    const int nk = static_cast<int>(rng.next_in(2, max_kills));
    // Distinct victims, always leaving at least one survivor.
    std::vector<int> ranks(static_cast<size_t>(w.nranks));
    for (int r = 0; r < w.nranks; ++r) ranks[static_cast<size_t>(r)] = r;
    for (size_t j = 0; j < static_cast<size_t>(nk); ++j) {
      std::swap(ranks[j],
                ranks[j + rng.next_below(ranks.size() - j)]);
    }
    FaultSchedule s;
    s.mode = opts_.mode;
    s.seed = opts_.seed;
    s.label = "multi/" + std::to_string(i);
    for (int j = 0; j < nk; ++j) {
      const int victim = ranks[static_cast<size_t>(j)];
      // Prefer ops the victim actually reaches on the golden run; any
      // candidate is legal, a too-late kill just never fires.
      int64_t op = candidates_[rng.next_below(candidates_.size())].op;
      for (int tries = 0;
           tries < 8 && op > golden_ops_[static_cast<size_t>(victim)];
           ++tries) {
        op = candidates_[rng.next_below(candidates_.size())].op;
      }
      // Checkpoint/restart: spread kills across resubmissions (repeated
      // restart). Detect/resume: all in submission 0 (continuous failures
      // against one shrinking job).
      const int submission = s.mode == "cr" ? j : 0;
      s.kills.push_back({victim, op, -1.0, submission});
      s.label += "/r" + std::to_string(victim) + "@op" + std::to_string(op) +
                 (submission ? "#s" + std::to_string(submission) : "");
    }
    out.push_back(std::move(s));
  }
  return out;
}

RunReport Explorer::minimize(const FaultSchedule& schedule, int* runs) {
  FaultSchedule best = schedule;
  RunReport best_rep = run_schedule(best);
  if (runs != nullptr) ++*runs;
  if (best_rep.violations.empty()) return best_rep;  // not reproducible

  // Greedy delta-debugging, remove-one granularity: drop each kill in turn;
  // keep any reduction that still violates, restart the scan, repeat to
  // fixpoint. Worst case O(kills^2) runs — kills is small by construction.
  bool improved = true;
  while (improved && best.kills.size() > 1) {
    improved = false;
    for (size_t i = 0; i < best.kills.size(); ++i) {
      FaultSchedule trial = best;
      trial.kills.erase(trial.kills.begin() + static_cast<ptrdiff_t>(i));
      trial.label = best.label + "-k" + std::to_string(i);
      RunReport rep = run_schedule(trial);
      if (runs != nullptr) ++*runs;
      if (!rep.violations.empty()) {
        best = std::move(trial);
        best_rep = std::move(rep);
        improved = true;
        break;
      }
    }
  }
  best_rep.schedule.label = schedule.label + "/minimized";
  return best_rep;
}

ExploreReport Explorer::explore() {
  ExploreReport report;
  if (!harvested_) {
    if (auto s = harvest(); !s.ok()) {
      RunReport rep;
      rep.schedule.label = "golden";
      rep.schedule.mode = opts_.mode;
      rep.violations.push_back({"harness", s.to_string()});
      report.runs = 1;
      report.failing.push_back(std::move(rep));
      return report;
    }
    report.runs = 1;  // the golden run
  }
  report.candidates = candidates_;

  std::vector<FaultSchedule> schedules = single_kill_schedules();
  for (FaultSchedule& s : multi_kill_schedules()) {
    schedules.push_back(std::move(s));
  }
  report.schedules = static_cast<int>(schedules.size());

  for (const FaultSchedule& s : schedules) {
    RunReport rep = run_schedule(s);
    ++report.runs;
    if (rep.violations.empty()) continue;
    if (opts_.minimize && rep.schedule.kills.size() > 1) {
      RunReport min_rep = minimize(rep.schedule, &report.runs);
      // A timing-sensitive schedule may fail to reproduce when re-run by the
      // minimizer; keep the original violating report (and its violations)
      // rather than overwriting it with a clean one.
      if (!min_rep.violations.empty()) rep = std::move(min_rep);
    }
    if (!opts_.artifact_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opts_.artifact_dir, ec);
      std::string name = rep.schedule.label;
      std::replace(name.begin(), name.end(), '/', '_');
      const std::string path =
          opts_.artifact_dir + "/" + rep.schedule.mode + "_" + name + ".json";
      const std::string body =
          artifact_json(rep.schedule, opts_.workload, opts_.break_recovery,
                        opts_.break_iteration_reuse, rep.violations);
      if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        report.artifacts.push_back(path);
      }
    }
    report.failing.push_back(std::move(rep));
  }
  return report;
}

}  // namespace ftmr::testing
