#include "serve/session.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "mining/partition.h"
#include "mining/sharded_db.h"
#include "obs/metrics.h"
#include "testing/fault_injection.h"

namespace hgm {
namespace serve {

namespace {

constexpr char kWalMagic[] = "hgmine-serve-wal";

/// Metadata carried by the WAL's comment header line.
struct WalHeader {
  size_t items = 0;
  bool stream = false;
  size_t min_support = 0;
  size_t window = 0;
  size_t slide = 0;
};

std::string FormatWalHeader(const WalHeader& h) {
  std::ostringstream os;
  os << "# " << kWalMagic << " v1 items=" << h.items
     << " stream=" << (h.stream ? 1 : 0) << " minsup=" << h.min_support
     << " window=" << h.window << " slide=" << h.slide << "\n";
  return os.str();
}

Result<WalHeader> ParseWalHeader(const std::string& line) {
  std::istringstream is(line);
  std::string hash, magic, version;
  is >> hash >> magic >> version;
  if (hash != "#" || magic != kWalMagic || version != "v1") {
    return Status::InvalidArgument("wal: bad header line");
  }
  WalHeader h;
  std::string kv;
  while (is >> kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("wal: bad header token '" + kv + "'");
    }
    const std::string key = kv.substr(0, eq);
    uint64_t value = 0;
    try {
      value = std::stoull(kv.substr(eq + 1));
    } catch (...) {
      return Status::InvalidArgument("wal: bad header value in '" + kv +
                                     "'");
    }
    if (key == "items") {
      h.items = static_cast<size_t>(value);
    } else if (key == "stream") {
      h.stream = value != 0;
    } else if (key == "minsup") {
      h.min_support = static_cast<size_t>(value);
    } else if (key == "window") {
      h.window = static_cast<size_t>(value);
    } else if (key == "slide") {
      h.slide = static_cast<size_t>(value);
    }  // unknown keys: forward compatibility, ignore
  }
  if (h.items == 0) return Status::InvalidArgument("wal: items missing");
  return h;
}

Result<Bitset> RowFromIndices(size_t num_items,
                              const std::vector<size_t>& items) {
  for (size_t i : items) {
    if (i >= num_items) {
      return Status::InvalidArgument(
          "row item " + std::to_string(i) + " outside the universe of " +
          std::to_string(num_items) + " items");
    }
  }
  return Bitset::FromIndices(num_items, items);
}

/// Reconstructs the answer fields shared by both miners.
MineAnswer AnswerFromApriori(const AprioriResult& r) {
  MineAnswer a;
  a.frequent = r.frequent;
  a.maximal = r.maximal;
  a.negative_border = r.negative_border;
  a.stop_reason = r.stop_reason;
  a.degraded = r.stop_reason != StopReason::kCompleted;
  a.evaluations = r.support_counts;
  return a;
}

}  // namespace

Session::~Session() {
  MutexLock lock(mu_);
  if (wal_ != nullptr) {
    std::fclose(wal_);
    wal_ = nullptr;
  }
}

Result<std::unique_ptr<Session>> Session::Open(const Request& req,
                                               const SessionOptions& options) {
  std::unique_ptr<Session> s(new Session());
  s->name_ = req.session;
  s->state_dir_ = options.state_dir;
  s->options_ = options;

  MutexLock lock(s->mu_);
  if (req.stream.has_value()) {
    if (!req.rows.empty()) {
      return Status::InvalidArgument(
          "stream sessions open empty; push rows afterwards");
    }
    if (req.num_items == 0) {
      return Status::InvalidArgument("stream open requires 'items'");
    }
    if (req.stream->min_support == 0) {
      return Status::InvalidArgument(
          "stream open requires stream.min_support >= 1");
    }
    const size_t slide = req.stream->slide_rows == 0
                             ? req.stream->window_rows
                             : req.stream->slide_rows;
    if (req.stream->window_rows % slide != 0) {
      return Status::InvalidArgument("stream.slide must divide the window");
    }
    s->num_items_ = req.num_items;
    StreamOptions sopts;
    sopts.slide_rows = slide;
    s->miner_ = std::make_unique<StreamMiner>(
        req.num_items, req.stream->min_support, req.stream->window_rows,
        sopts);
  } else if (!req.path.empty()) {
    Result<TransactionDatabase> loaded =
        TransactionDatabase::LoadBasketFile(req.path, req.num_items);
    if (!loaded.ok()) return loaded.status();
    s->db_ =
        std::make_unique<TransactionDatabase>(std::move(loaded.value()));
    s->num_items_ = s->db_->num_items();
    if (s->num_items_ == 0) {
      return Status::InvalidArgument("dataset declares an empty universe");
    }
  } else {
    if (req.num_items == 0) {
      return Status::InvalidArgument(
          "open with inline rows requires 'items'");
    }
    for (const std::vector<size_t>& row : req.rows) {
      Result<Bitset> checked = RowFromIndices(req.num_items, row);
      if (!checked.ok()) return checked.status();
    }
    s->num_items_ = req.num_items;
    s->db_ = std::make_unique<TransactionDatabase>(
        TransactionDatabase::FromRows(req.num_items, req.rows));
  }

  if (!s->state_dir_.empty()) {
    Status ws = s->OpenWal(/*fresh=*/true);
    if (!ws.ok()) return ws;
    // A batch session opened from a file or inline rows writes those rows
    // through the log too, so the WAL alone rebuilds the session.
    if (s->db_ != nullptr) {
      for (const Bitset& row : s->db_->rows()) {
        Status ls = s->LogRow(row);
        if (!ls.ok()) return ls;
      }
    }
  }
  if (s->db_ != nullptr) s->rows_logged_ = s->db_->num_transactions();
  HGM_OBS_COUNT("serve.sessions_opened", 1);
  return s;
}

Result<std::unique_ptr<Session>> Session::Recover(
    const std::string& name, const SessionOptions& options) {
  std::unique_ptr<Session> s(new Session());
  s->name_ = name;
  s->state_dir_ = options.state_dir;
  s->options_ = options;
  MutexLock lock(s->mu_);

  std::ifstream in(s->WalPath(), std::ios::binary);
  if (!in) return Status::NotFound("no wal for session '" + name + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read error on " + s->WalPath());
  std::string text = buf.str();
  if (text.empty()) {
    return Status::InvalidArgument("wal for '" + name + "' is empty");
  }
  // Tolerate a torn tail: a crash mid-append leaves a final line without
  // its newline; that row was never acknowledged, so drop it.
  const size_t last_nl = text.rfind('\n');
  if (last_nl == std::string::npos) {
    return Status::InvalidArgument("wal for '" + name +
                                   "' has no complete line");
  }
  text.resize(last_nl + 1);

  const size_t header_end = text.find('\n');
  Result<WalHeader> header = ParseWalHeader(text.substr(0, header_end));
  if (!header.ok()) return header.status();
  const WalHeader& h = header.value();
  s->num_items_ = h.items;

  // The header is a '#' comment, so the whole log parses as basket text.
  Result<TransactionDatabase> rows =
      TransactionDatabase::ParseBasketText(text, h.items, s->WalPath());
  if (!rows.ok()) return rows.status();

  if (h.stream) {
    if (h.min_support == 0 || h.window == 0 || h.slide == 0 ||
        h.window % h.slide != 0) {
      return Status::InvalidArgument("wal for '" + name +
                                     "' has a bad stream geometry");
    }
    StreamOptions sopts;
    sopts.slide_rows = h.slide;
    s->miner_ = std::make_unique<StreamMiner>(h.items, h.min_support,
                                              h.window, sopts);
    // Replay: the repair path is deterministic, so driving the same rows
    // through Push/AdvanceWindow (unlimited budget) rebuilds the borders
    // and tilted history bit-identically to the pre-crash engine.
    for (const Bitset& row : rows.value().rows()) {
      if (s->miner_->Push(row)) (void)s->miner_->AdvanceWindow();
    }
  } else {
    s->db_ =
        std::make_unique<TransactionDatabase>(std::move(rows.value()));
  }
  s->rows_logged_ =
      h.stream ? rows.value().num_transactions() : s->db_->num_transactions();

  // Warm state is an accelerator, never the truth: adopt it only when its
  // logged-row count matches the WAL, ignore it (and any parse failure)
  // otherwise.
  if (s->db_ != nullptr) {
    Result<Checkpoint> warm = LoadCheckpointFile(s->WarmPath());
    uint64_t warm_rows = 0;
    if (warm.ok() && warm.value().kind == "serve" &&
        warm.value().width == s->num_items_ &&
        warm.value().GetScalar("rows_logged", &warm_rows) &&
        warm_rows == s->rows_logged_) {
      const Checkpoint& cp = warm.value();
      for (const auto& [sect_name, entries] : cp.sections) {
        if (sect_name.rfind("th_", 0) != 0) continue;
        size_t minsup = 0;
        try {
          minsup = std::stoull(sect_name.substr(3));
        } catch (...) {
          continue;
        }
        AprioriResult cached;
        cached.frequent.reserve(entries.size());
        bool ok = true;
        for (const CheckpointEntry& e : entries) {
          if (e.items.size() != s->num_items_) {
            ok = false;
            break;
          }
          cached.frequent.push_back(
              {e.items, static_cast<size_t>(e.value)});
        }
        if (!ok) continue;
        Status rs = ReadSetSection(cp, "max_" + sect_name.substr(3),
                                   s->num_items_, &cached.maximal);
        if (!rs.ok()) continue;
        rs = ReadSetSection(cp, "bdn_" + sect_name.substr(3), s->num_items_,
                            &cached.negative_border);
        if (!rs.ok()) continue;
        s->CacheMine(minsup, std::move(cached));
      }
      for (const auto& [scalar_name, shards] : cp.scalars) {
        if (scalar_name.rfind("pending_", 0) != 0) continue;
        size_t minsup = 0;
        try {
          minsup = std::stoull(scalar_name.substr(8));
        } catch (...) {
          continue;
        }
        Result<Checkpoint> parked =
            LoadCheckpointFile(s->PendingMinePath(minsup));
        uint64_t parked_rows = 0, parked_shards = 0;
        if (parked.ok() &&
            parked.value().GetScalar("serve_rows", &parked_rows) &&
            parked.value().GetScalar("serve_shards", &parked_shards) &&
            parked_rows == s->rows_logged_ && parked_shards == shards) {
          s->pending_mines_.emplace(minsup, std::move(parked.value()));
        }
      }
    }
  }

  Status ws = s->OpenWal(/*fresh=*/false);
  if (!ws.ok()) return ws;
  s->dirty_ = false;
  HGM_OBS_COUNT("serve.sessions_recovered", 1);
  return s;
}

Status Session::OpenWal(bool fresh) {
  if (state_dir_.empty()) return Status::OK();
  wal_ = std::fopen(WalPath().c_str(), fresh ? "wb" : "ab");
  if (wal_ == nullptr) {
    return Status::IOError("cannot open wal: " + WalPath());
  }
  if (fresh) {
    WalHeader h;
    h.items = num_items_;
    h.stream = miner_ != nullptr;
    if (miner_ != nullptr) {
      h.min_support = miner_->min_support();
      h.window = miner_->window_rows();
      h.slide = miner_->slide_rows();
    }
    const std::string header = FormatWalHeader(h);
    if (std::fwrite(header.data(), 1, header.size(), wal_) !=
            header.size() ||
        std::fflush(wal_) != 0) {
      return Status::IOError("short write to wal: " + WalPath());
    }
  }
  return Status::OK();
}

Status Session::LogRow(const Bitset& row) {
  if (wal_ == nullptr) return Status::OK();
  std::string line;
  bool first = true;
  row.ForEach([&](size_t i) {
    if (!first) line.push_back(' ');
    first = false;
    line += std::to_string(i);
  });
  line.push_back('\n');
  // Flushed before the request is acknowledged: once the bytes are in
  // the page cache, a kill -9 of the *process* cannot lose them.
  if (std::fwrite(line.data(), 1, line.size(), wal_) != line.size() ||
      std::fflush(wal_) != 0) {
    return Status::IOError("short write to wal: " + WalPath());
  }
  return Status::OK();
}

Result<PushOutcome> Session::Append(
    const std::vector<std::vector<size_t>>& rows, const RunBudget& budget,
    ThreadPool* pool) {
  MutexLock lock(mu_);
  PushOutcome out;

  if (miner_ != nullptr) {
    miner_->set_budget(budget);
    miner_->set_pool(pool);
    // A previously tripped boundary repair must finish before the window
    // can move: resume it under this request's budget.
    if (pending_repair_.has_value()) {
      Result<StreamWindowResult> resumed =
          miner_->ResumeAdvance(*pending_repair_);
      if (!resumed.ok()) return resumed.status();
      if (resumed.value().stop_reason != StopReason::kCompleted) {
        pending_repair_ = resumed.value().checkpoint;
        out.degraded = true;
        out.stop_reason = resumed.value().stop_reason;
        dirty_ = true;
        return out;
      }
      pending_repair_.reset();
      out.boundaries.push_back(std::move(resumed.value()));
    }
    for (const std::vector<size_t>& row : rows) {
      Result<Bitset> checked = RowFromIndices(num_items_, row);
      if (!checked.ok()) return checked.status();
      const bool due = miner_->Push(checked.value());
      Status ls = LogRow(checked.value());
      if (!ls.ok()) return ls;
      ++rows_logged_;
      ++out.consumed;
      dirty_ = true;
      if (due) {
        StreamWindowResult res = miner_->AdvanceWindow();
        if (res.stop_reason != StopReason::kCompleted) {
          // Certified-prefix semantics: park the repair, stop consuming;
          // the client re-sends rows[consumed:] and the next push
          // resumes the boundary first.
          out.degraded = true;
          out.stop_reason = res.stop_reason;
          pending_repair_ = std::move(res.checkpoint);
          HGM_OBS_COUNT("serve.boundary_trips", 1);
          return out;
        }
        out.boundaries.push_back(std::move(res));
      }
    }
    return out;
  }

  for (const std::vector<size_t>& row : rows) {
    Result<Bitset> checked = RowFromIndices(num_items_, row);
    if (!checked.ok()) return checked.status();
    db_->AddTransaction(checked.value());
    Status ls = LogRow(checked.value());
    if (!ls.ok()) return ls;
    ++rows_logged_;
    ++out.consumed;
  }
  if (out.consumed > 0) {
    InvalidateDerivedState();
    dirty_ = true;
  }
  return out;
}

Result<MineAnswer> Session::Mine(size_t min_support, size_t shards,
                                 const RunBudget& budget, ThreadPool* pool,
                                 const std::optional<ChaosSpec>& chaos) {
  MutexLock lock(mu_);
  return MineLocked(min_support, shards, budget, pool, chaos);
}

Result<MineAnswer> Session::MineLocked(
    size_t min_support, size_t shards, const RunBudget& budget,
    ThreadPool* pool, const std::optional<ChaosSpec>& chaos) {
  if (min_support == 0) {
    return Status::InvalidArgument("mine requires min_support >= 1");
  }

  // Stream sessions mine a snapshot of the current window — the batch
  // cross-check surface — with no caching (the window moves).
  TransactionDatabase snapshot;
  TransactionDatabase* db = db_.get();
  if (miner_ != nullptr) {
    snapshot = miner_->WindowSnapshot();
    db = &snapshot;
  }

  if (db == db_.get() && !chaos.has_value()) {
    auto hit = cache_.find(min_support);
    if (hit != cache_.end()) {
      MineAnswer a = AnswerFromApriori(hit->second);
      a.from_cache = true;
      a.evaluations = 0;
      HGM_OBS_COUNT("serve.mine_cache_hits", 1);
      return a;
    }
  }

  // A parked partial mine for the same (min_support, shards, rows)
  // resumes mid-lattice instead of restarting — the serve layer's resume
  // contract.  Stale parks (rows or shape changed) are dropped, and a
  // park the engine refuses to resume falls back to a fresh mine.
  std::optional<Checkpoint> resume_from;
  if (db == db_.get()) {
    auto parked = pending_mines_.find(min_support);
    if (parked != pending_mines_.end()) {
      uint64_t parked_rows = 0, parked_shards = 0;
      if (parked->second.GetScalar("serve_rows", &parked_rows) &&
          parked->second.GetScalar("serve_shards", &parked_shards) &&
          parked_rows == db->num_transactions() &&
          parked_shards == shards && !chaos.has_value()) {
        resume_from = parked->second;
      }
      pending_mines_.erase(parked);
      (void)std::remove(PendingMinePath(min_support).c_str());
    }
  }

  MineAnswer answer;
  AprioriResult mined;
  if (shards == 0) {
    AprioriOptions opts;
    opts.pool = pool;
    opts.budget = budget;
    if (resume_from.has_value()) {
      Result<AprioriResult> resumed =
          ResumeFrequentSets(db, *resume_from, opts);
      if (resumed.ok()) {
        mined = std::move(resumed.value());
        answer.resumed = true;
      } else {
        HGM_OBS_COUNT("serve.park_discarded", 1);
      }
    }
    if (!answer.resumed) mined = MineFrequentSets(db, min_support, opts);
  } else {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(*db, shards);
    PartitionOptions popts;
    popts.pool = pool;
    popts.budget = budget;
    popts.retry = options_.shard_retry;
    if (chaos.has_value()) {
      FaultSpec spec;
      spec.transient_rate = chaos->transient_rate;
      spec.permanent_rate = chaos->permanent_rate;
      spec.seed = chaos->seed;
      popts.shard_fault_hook = MakeShardFaultSchedule(spec);
      popts.sleeper = [](uint64_t) {};  // chaos runs never sleep for real
    }
    PartitionResult part;
    if (resume_from.has_value()) {
      Result<PartitionResult> resumed =
          ResumePartition(&sharded, *resume_from, popts);
      if (resumed.ok()) {
        part = std::move(resumed.value());
        answer.resumed = true;
      } else {
        HGM_OBS_COUNT("serve.park_discarded", 1);
      }
    }
    if (!answer.resumed) part = MinePartitioned(&sharded, min_support, popts);
    answer.failed_shards = part.failed_shards;
    answer.shard_retries = part.shard_retries;
    if (!part.status.ok()) {
      // Shard failure past retry: the certified union over surviving
      // shards — exact supports, possibly missing sets (degraded, not an
      // error; the response says so).
      answer.frequent = std::move(part.frequent);
      answer.maximal = std::move(part.maximal);
      answer.negative_border = std::move(part.negative_border);
      answer.degraded = true;
      answer.stop_reason = part.stop_reason;
      answer.evaluations = part.phase2_evaluations;
      HGM_OBS_COUNT("serve.degraded_shard_loss", 1);
      return answer;
    }
    mined = AsAprioriResult(part);
    mined.stop_reason = part.stop_reason;
    mined.checkpoint = std::move(part.checkpoint);
  }

  const bool resumed_flag = answer.resumed;
  const auto failed = std::move(answer.failed_shards);
  const uint64_t retries = answer.shard_retries;
  answer = AnswerFromApriori(mined);
  answer.resumed = resumed_flag;
  answer.failed_shards = failed;
  answer.shard_retries = retries;

  if (db == db_.get()) {
    if (mined.stop_reason != StopReason::kCompleted &&
        mined.checkpoint.has_value()) {
      ParkMine(min_support, shards, std::move(*mined.checkpoint));
      HGM_OBS_COUNT("serve.mine_trips", 1);
    } else if (mined.stop_reason == StopReason::kCompleted &&
               !chaos.has_value()) {
      CacheMine(min_support, std::move(mined));
    }
  }
  return answer;
}

Result<size_t> Session::SupportOf(const std::vector<size_t>& itemset) {
  MutexLock lock(mu_);
  Result<Bitset> set = RowFromIndices(num_items_, itemset);
  if (!set.ok()) return set.status();
  if (miner_ != nullptr) {
    return miner_->WindowSnapshot().Support(set.value());
  }
  return db_->Support(set.value());
}

Result<std::vector<AssociationRule>> Session::Rules(
    size_t min_support, double min_conf, const RunBudget& budget,
    ThreadPool* pool, MineAnswer* answer_out) {
  MutexLock lock(mu_);
  Result<MineAnswer> mined =
      MineLocked(min_support, /*shards=*/0, budget, pool, std::nullopt);
  if (!mined.ok()) return mined.status();
  // Rules from a certified prefix are still sound — every antecedent
  // support is exact and present (the prefix is downward closed) — the
  // list is just possibly incomplete, and the degraded flag says so.
  AprioriResult for_rules;
  for_rules.frequent = mined.value().frequent;
  const size_t rows = miner_ != nullptr ? miner_->rows_in_window()
                                        : db_->num_transactions();
  Result<std::vector<AssociationRule>> rules =
      GenerateRules(for_rules, rows, min_conf);
  if (!rules.ok()) return rules.status();
  *answer_out = std::move(mined.value());
  return rules;
}

void Session::ParkMine(size_t min_support, size_t shards,
                       Checkpoint checkpoint) {
  checkpoint.SetScalar("serve_rows", db_->num_transactions());
  checkpoint.SetScalar("serve_shards", shards);
  pending_mines_[min_support] = std::move(checkpoint);
  dirty_ = true;
}

void Session::CacheMine(size_t min_support, AprioriResult result) {
  if (cache_.count(min_support) == 0) {
    cache_order_.push_back(min_support);
  }
  cache_[min_support] = std::move(result);
  while (cache_order_.size() > options_.mine_cache_capacity) {
    cache_.erase(cache_order_.front());
    cache_order_.erase(cache_order_.begin());
  }
  dirty_ = true;
}

void Session::InvalidateDerivedState() {
  cache_.clear();
  cache_order_.clear();
  pending_mines_.clear();
}

Status Session::SaveWarm() {
  MutexLock lock(mu_);
  if (state_dir_.empty() || !dirty_) return Status::OK();
  // Stream sessions: the WAL *is* the checkpoint (replay is
  // deterministic); parked repairs are rebuilt by replay too.
  if (miner_ != nullptr) {
    dirty_ = false;
    return Status::OK();
  }

  Checkpoint cp;
  cp.kind = "serve";
  cp.width = num_items_;
  cp.SetScalar("rows_logged", rows_logged_);
  for (const auto& [minsup, result] : cache_) {
    // Oversized theories exceed the checkpoint parse caps; skip them —
    // warm state is an accelerator, and a restart simply re-mines.
    if (result.frequent.size() > 2048) continue;
    const std::string suffix = std::to_string(minsup);
    std::vector<CheckpointEntry>* th = cp.AddSection("th_" + suffix);
    th->reserve(result.frequent.size());
    for (const FrequentItemset& f : result.frequent) {
      th->push_back({f.items, f.support});
    }
    AddSetSection(&cp, "max_" + suffix, result.maximal);
    AddSetSection(&cp, "bdn_" + suffix, result.negative_border);
  }
  for (const auto& [minsup, parked] : pending_mines_) {
    uint64_t shards = 0;
    (void)parked.GetScalar("serve_shards", &shards);
    cp.SetScalar("pending_" + std::to_string(minsup), shards);
    Status ps = SaveCheckpointFile(parked, PendingMinePath(minsup));
    if (!ps.ok()) return ps;
  }
  Status s = SaveCheckpointFile(cp, WarmPath());
  if (!s.ok()) return s;
  dirty_ = false;
  HGM_OBS_COUNT("serve.warm_saves", 1);
  return Status::OK();
}

std::vector<std::pair<std::string, obs::JsonValue>> Session::StatsFields() {
  MutexLock lock(mu_);
  using obs::JsonValue;
  std::vector<std::pair<std::string, JsonValue>> fields;
  fields.emplace_back("name", JsonValue::String(name_));
  fields.emplace_back("stream", JsonValue::Bool(miner_ != nullptr));
  fields.emplace_back("items",
                      JsonValue::Number(static_cast<double>(num_items_)));
  fields.emplace_back(
      "rows_logged", JsonValue::Number(static_cast<double>(rows_logged_)));
  if (miner_ != nullptr) {
    fields.emplace_back("rows_in_window",
                        JsonValue::Number(static_cast<double>(
                            miner_->rows_in_window())));
    fields.emplace_back("windows_completed",
                        JsonValue::Number(static_cast<double>(
                            miner_->windows_completed())));
    fields.emplace_back("repair_pending",
                        JsonValue::Bool(pending_repair_.has_value()));
  } else {
    fields.emplace_back("rows", JsonValue::Number(static_cast<double>(
                                    db_->num_transactions())));
    std::vector<JsonValue> cached;
    for (size_t minsup : cache_order_) {
      cached.push_back(JsonValue::Number(static_cast<double>(minsup)));
    }
    fields.emplace_back("cached_minsups",
                        JsonValue::Array(std::move(cached)));
    fields.emplace_back("pending_mines",
                        JsonValue::Number(static_cast<double>(
                            pending_mines_.size())));
  }
  return fields;
}

}  // namespace serve
}  // namespace hgm
