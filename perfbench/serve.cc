// serve_mixed and serve_replay: an in-process serve::Server (2 workers,
// WAL on, default admission caps and deadlines) holding two sessions of
// 10k Quest rows x 60 items (T=6), sent one mix of requests: 5% push of 50
// rows, 25% mine at 3% or 4%, 70% two-item support.  Pushes invalidate the
// session's mine cache and contend with mines for the session lock.
//
// serve_mixed sends an open-loop Poisson schedule at 300 req/s from one
// generator thread through Submit.  Each request is timed from its
// scheduled send time to its reply, so a stall also charges the requests
// queued behind it; failed or shed requests enter the percentiles as +inf.
//
// serve_replay sends the same recorded request lines one at a time
// through the synchronous Handle, each pass on a freshly started server,
// so every pass does the same work and no request queues behind another.
// Each request is timed from the call to its reply.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "mining/generators.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kItems = 60;
constexpr size_t kSessionRows = 10000;
constexpr size_t kSessions = 2;
constexpr size_t kPushRows = 50;
// About half the rate at which the reference host starts to shed (700
// req/s; see README.md).
constexpr double kRate = 300;
constexpr int kSetupReps = 21;
constexpr size_t kExecReplays = 21;
// serve_replay's pass: the first kReplayScheduleS seconds of the schedule.
constexpr double kReplayScheduleS = 2.0;
// A run whose generator sends this late, or whose last reply trails the
// last send by this much, measured a backlog instead of the schedule.
constexpr double kMaxGeneratorLateS = 0.2;
constexpr double kMaxDrainLagS = 2.0;

using Rows = std::vector<std::vector<size_t>>;

/// \p rows Quest rows resampled by \p seed from population \p shape.
Rows QuestRows(size_t rows, uint64_t shape, uint64_t seed) {
  hgm::QuestParams params;
  params.num_transactions = rows;
  params.avg_transaction_size = 6;
  params.num_items = kItems;
  hgm::Rng rng(kShapeSeed + shape);
  const hgm::TransactionDatabase db =
      Resample(hgm::GenerateQuest(params, &rng), rows, seed);
  Rows out;
  for (const hgm::Bitset& row : db.rows()) out.push_back(row.Indices());
  return out;
}

void AppendRows(std::ostringstream* os, const Rows& rows, size_t begin,
                size_t end) {
  *os << "\"rows\":[";
  for (size_t r = begin; r < end; ++r) {
    *os << (r > begin ? ",[" : "[");
    for (size_t i = 0; i < rows[r].size(); ++i) {
      *os << (i > 0 ? "," : "") << rows[r][i];
    }
    *os << "]";
  }
  *os << "]";
}

std::string SessionName(size_t s) { return "s" + std::to_string(s); }

size_t MineSupport(uint32_t percent) { return kSessionRows * percent / 100; }

std::string MineLine(uint64_t id, size_t session, size_t min_support) {
  return "{\"op\":\"mine\",\"id\":" + std::to_string(id) +
         ",\"session\":\"" + SessionName(session) +
         "\",\"min_support\":" + std::to_string(min_support) + "}";
}

std::string PushLine(uint64_t id, size_t session, const Rows& pool,
                     size_t offset) {
  std::ostringstream os;
  os << "{\"op\":\"push\",\"id\":" << id << ",\"session\":\""
     << SessionName(session) << "\",";
  AppendRows(&os, pool, offset, offset + kPushRows);
  os << "}";
  return os.str();
}

std::string SupportLine(uint64_t id, size_t session, uint32_t a,
                        uint32_t b) {
  return "{\"op\":\"support\",\"id\":" + std::to_string(id) +
         ",\"session\":\"" + SessionName(session) + "\",\"itemset\":[" +
         std::to_string(a) + "," + std::to_string(b) + "]}";
}

bool IsOk(const std::string& reply) {
  return reply.find("\"ok\":true") != std::string::npos;
}

std::string FingerprintOf(const std::string& reply) {
  const std::string key = "\"fingerprint\":\"";
  const size_t at = reply.find(key);
  if (at == std::string::npos) return "";
  const size_t begin = at + key.size();
  return reply.substr(begin, reply.find('"', begin) - begin);
}

/// The inputs of one run, all derived from the seed.
struct Inputs {
  std::vector<Rows> sessions;   // initial rows per session
  Rows push_pool;               // rows the pushes send, in schedule order
  std::vector<ScheduledRequest> schedule;
  std::vector<std::string> lines;  // rendered requests, parallel to schedule
  std::vector<std::string> open_lines;
};

/// A started server with both sessions open, owning its state dir.
struct Instance {
  std::string state_dir;
  std::unique_ptr<hgm::serve::Server> server;

  ~Instance() {
    if (server != nullptr) server->Drain();
    server.reset();
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  }
};

/// Start plus both opens answered; returns the seconds it took, or a
/// negative value when the server refused.
double StartInstance(const Inputs& in, const std::string& state_dir,
                     Instance* inst) {
  std::error_code ec;
  std::filesystem::remove_all(state_dir, ec);
  std::filesystem::create_directories(state_dir, ec);
  inst->state_dir = state_dir;
  const double t0 = Now();
  hgm::serve::ServerConfig config;
  config.workers = 2;
  config.state_dir = state_dir;
  inst->server = std::make_unique<hgm::serve::Server>(config);
  if (!inst->server->Start().ok()) return -1;
  for (const std::string& line : in.open_lines) {
    if (!IsOk(inst->server->Handle(line))) return -1;
  }
  return Now() - t0;
}

/// What one pass over the schedule observed.
struct Pass {
  std::vector<double> latency;  // seconds; +inf for failed requests
  std::vector<std::string> replies;
  double gen_late_max = 0;
  double drain_lag = 0;
};

Pass RunSchedule(const Inputs& in, hgm::serve::Server* server,
                 Tracer* tracer) {
  const size_t n = in.schedule.size();
  Pass pass;
  pass.latency.assign(n, std::numeric_limits<double>::infinity());
  pass.replies.assign(n, "");
  std::vector<double> reply_at(n, 0);
  std::vector<int64_t> span(n, -1);
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;  // guarded by mu

  static const char* kClassName[] = {"request.push", "request.mine",
                                     "request.support"};
  const double start = Now() + 0.01;
  for (size_t i = 0; i < n; ++i) {
    const double due = start + in.schedule[i].send_at;
    // Sleep to within a millisecond of the send time, then spin: timer
    // wake-up jitter would otherwise be charged to every request.
    if (due - Now() > 1e-3) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - Now() - 1e-3));
    }
    while (Now() < due) {
    }
    const double sent = Now();
    pass.gen_late_max = std::max(pass.gen_late_max, sent - due);
    const uint64_t id = i + 1;
    span[i] = tracer->Record(
        {kClassName[static_cast<int>(in.schedule[i].cls)], "serve", due, 0,
         -1, id});
    server->Submit(in.lines[i], [&, i](std::string reply) {
      const double now = Now();
      tracer->SetEnd(span[i], now);
      std::lock_guard<std::mutex> lock(mu);
      reply_at[i] = now;
      pass.replies[i] = std::move(reply);
      ++done;
      cv.notify_all();
    });
    tracer->Record({"Server::Submit", "serve", sent, Now(), span[i], id});
  }
  const double last_due = start + (n > 0 ? in.schedule.back().send_at : 0);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  }
  double last_reply = last_due;
  for (size_t i = 0; i < n; ++i) {
    last_reply = std::max(last_reply, reply_at[i]);
    if (IsOk(pass.replies[i])) {
      pass.latency[i] = reply_at[i] - (start + in.schedule[i].send_at);
    }
  }
  pass.drain_lag = last_reply - last_due;
  return pass;
}

/// Sends every scheduled line through the synchronous Handle, one after
/// the other, and times each from the call to its reply.
Pass RunReplay(const Inputs& in, hgm::serve::Server* server, Tracer* tracer) {
  static const char* kClassName[] = {"request.push", "request.mine",
                                     "request.support"};
  const size_t n = in.schedule.size();
  Pass pass;
  pass.latency.assign(n, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < n; ++i) {
    const double t0 = Now();
    const int64_t span = tracer->Record(
        {kClassName[static_cast<int>(in.schedule[i].cls)], "serve", t0, 0,
         -1, i + 1});
    pass.replies.push_back(server->Handle(in.lines[i]));
    const double t1 = Now();
    tracer->SetEnd(span, t1);
    if (IsOk(pass.replies.back())) pass.latency[i] = t1 - t0;
  }
  return pass;
}

/// Counts each reply (a typed unavailable is a legal shed; anything else
/// not ok is wrong) and checks both sessions against a local re-mine of
/// the rows they accepted.
void CheckPass(const Inputs& in, const Pass& pass, hgm::serve::Server* server,
               Outcome* out) {
  std::vector<Rows> rows = in.sessions;
  for (size_t i = 0; i < pass.replies.size(); ++i) {
    const std::string& reply = pass.replies[i];
    const ScheduledRequest& req = in.schedule[i];
    if (IsOk(reply)) {
      ++out->attempted;
      if (req.cls == RequestClass::kPush) {
        rows[req.session].insert(
            rows[req.session].end(),
            in.push_pool.begin() + static_cast<ptrdiff_t>(req.row_offset),
            in.push_pool.begin() +
                static_cast<ptrdiff_t>(req.row_offset + kPushRows));
      }
    } else if (reply.find("\"code\":\"unavailable\"") != std::string::npos) {
      if (out->failed == 0) {
        std::cerr << "perfbench: first shed: " << reply << "\n";
      }
      out->Refused();
    } else {
      out->Check(false, "untyped failure: " + reply);
    }
  }
  out->Check(pass.gen_late_max <= kMaxGeneratorLateS,
             "generator fell behind the schedule");
  out->Check(pass.drain_lag <= kMaxDrainLagS, "backlog outlived the schedule");

  hgm::ThreadPool pool(1);
  for (size_t s = 0; s < kSessions; ++s) {
    const std::string reply =
        server->Handle(MineLine(900000 + s, s, MineSupport(3)));
    hgm::TransactionDatabase db =
        hgm::TransactionDatabase::FromRows(kItems, rows[s]);
    hgm::AprioriOptions options;
    options.pool = &pool;
    const hgm::AprioriResult local =
        hgm::MineFrequentSets(&db, MineSupport(3), options);
    out->Check(IsOk(reply) &&
                   FingerprintOf(reply) ==
                       hgm::serve::TheoryFingerprint(local.frequent,
                                                     local.maximal,
                                                     local.negative_border),
               "session " + SessionName(s) + " differs from a local re-mine");
  }
}

Inputs MakeInputs(uint64_t seed, double seconds) {
  Inputs in;
  for (size_t s = 0; s < kSessions; ++s) {
    in.sessions.push_back(QuestRows(kSessionRows, s, seed));
    std::ostringstream os;
    os << "{\"op\":\"open\",\"id\":" << s + 1 << ",\"session\":\""
       << SessionName(s) << "\",\"items\":" << kItems << ",";
    AppendRows(&os, in.sessions[s], 0, kSessionRows);
    os << "}";
    in.open_lines.push_back(os.str());
  }
  // One schedule for every seed: its Poisson realisation alone moved the
  // median request by a quarter between seeds, while resampled sessions
  // move it by under a tenth.
  in.schedule = PoissonSchedule(kShapeSeed, kRate, seconds, kItems);
  size_t push_rows = kExecReplays * kPushRows;
  for (const ScheduledRequest& r : in.schedule) {
    if (r.cls == RequestClass::kPush) push_rows += kPushRows;
  }
  in.push_pool = QuestRows(push_rows, kSessions, seed);
  for (size_t i = 0; i < in.schedule.size(); ++i) {
    const ScheduledRequest& r = in.schedule[i];
    const uint64_t id = i + 1;
    switch (r.cls) {
      case RequestClass::kPush:
        in.lines.push_back(PushLine(id, r.session, in.push_pool,
                                    r.row_offset));
        break;
      case RequestClass::kMine:
        in.lines.push_back(MineLine(id, r.session,
                                    MineSupport(r.mine_percent)));
        break;
      case RequestClass::kSupport:
        in.lines.push_back(SupportLine(id, r.session, r.item_a, r.item_b));
        break;
    }
  }
  return in;
}

std::string ReplyClass(const ScheduledRequest& r, const std::string& reply) {
  if (r.cls == RequestClass::kPush) return "push";
  if (r.cls == RequestClass::kSupport) return "support";
  return reply.find("\"from_cache\":true") != std::string::npos ? "mine_hit"
                                                               : "mine_miss";
}

}  // namespace

Outcome RunServe(const RunArgs& args) {
  Outcome out;
  Tracer tracer(args.trace);
  Tracer off(false);
  const bool replay = args.workload == "serve_replay";
  const Inputs in =
      MakeInputs(args.seed, replay ? kReplayScheduleS : args.seconds);
  const std::string state_root =
      args.workdir + "/serve_state_" + std::to_string(args.seed);
  auto run_pass = [&](hgm::serve::Server* server, Tracer* t) {
    return replay ? RunReplay(in, server, t) : RunSchedule(in, server, t);
  };

  if (replay && !args.trace) {
    // Passes until the time is up, each on a fresh server whose set-up
    // is one setup_s sample.  The tail pools every request; the central
    // metric is over passes of their mean request, which weighs the mines
    // by their cost: most requests are supports whose latency is the
    // hand-off to a worker and back, and how fast a sleeping worker wakes
    // swings with the host's load far more than the mining does.
    std::vector<double> setup, latency, pass_mean;
    const double stop = Now() + args.seconds;
    while (setup.size() < 3 || Now() < stop) {
      Instance inst;
      const double secs = StartInstance(in, state_root + "/replay", &inst);
      out.Check(secs >= 0, "server start or open failed");
      if (secs < 0) return out;
      setup.push_back(secs);
      const Pass pass = RunReplay(in, inst.server.get(), &off);
      CheckPass(in, pass, inst.server.get(), &out);
      latency.insert(latency.end(), pass.latency.begin(), pass.latency.end());
      pass_mean.push_back(
          std::accumulate(pass.latency.begin(), pass.latency.end(), 0.0) /
          static_cast<double>(pass.latency.size()));
    }
    out.Add("setup_s", Median(setup), "s");
    out.Add("op_ms_trimmed_mean", TrimmedMean(pass_mean) * 1e3, "ms");
    out.Add("op_ms_tail", TailPercentile(latency) * 1e3, "ms");
    out.samples = latency.size();
    return out;
  }

  // Set-up: Start plus both opens, median of kSetupReps fresh servers;
  // the last one serves the schedule.
  std::vector<double> setup;
  auto inst = std::make_unique<Instance>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst = std::make_unique<Instance>();
    const double secs = StartInstance(in, state_root + "/setup", inst.get());
    out.Check(secs >= 0, "server start or open failed");
    if (secs < 0) return out;
    setup.push_back(secs);
  }

  if (!args.trace) {
    const Pass pass = RunSchedule(in, inst->server.get(), &off);
    CheckPass(in, pass, inst->server.get(), &out);
    out.Add("setup_s", Median(setup), "s");
    out.Add("op_ms_trimmed_mean", TrimmedMean(pass.latency) * 1e3, "ms");
    out.Add("op_ms_tail", TailPercentile(pass.latency) * 1e3, "ms");
    out.samples = pass.latency.size();
    return out;
  }

  // Traced run: the schedule untraced on the set-up server, then again
  // traced on a fresh one, then the idle-server replays.
  const Pass untraced = run_pass(inst->server.get(), &off);
  CheckPass(in, untraced, inst->server.get(), &out);
  inst = std::make_unique<Instance>();
  out.Check(StartInstance(in, state_root + "/traced", inst.get()) >= 0,
            "server start or open failed");
  hgm::serve::Server* server = inst->server.get();
  const Pass pass = run_pass(server, &tracer);
  CheckPass(in, pass, server, &out);

  std::map<std::string, std::vector<double>> by_class;
  size_t hits = 0, mines = 0, shed = 0;
  for (size_t i = 0; i < pass.replies.size(); ++i) {
    const std::string cls = ReplyClass(in.schedule[i], pass.replies[i]);
    by_class[cls].push_back(pass.latency[i]);
    if (cls == "mine_hit" || cls == "mine_miss") ++mines;
    if (cls == "mine_hit") ++hits;
    if (!IsOk(pass.replies[i])) ++shed;
  }
  for (const char* cls : {"support", "push", "mine_hit", "mine_miss"}) {
    const auto& v = by_class[cls];
    out.Add(std::string("serve.") + cls + "_ms_p50",
            v.empty() ? 0 : Median(v) * 1e3, "ms");
  }
  out.Add("serve.mine_cache_hit_frac",
          mines == 0 ? 0 : static_cast<double>(hits) /
                               static_cast<double>(mines),
          "ratio");
  out.Add("serve.shed_frac",
          static_cast<double>(shed) /
              static_cast<double>(std::max<size_t>(pass.replies.size(), 1)),
          "ratio");
  if (!replay) {
    out.Add("serve.gen_late_ms_max", pass.gen_late_max * 1e3, "ms");
    out.Add("serve.drain_lag_ms", pass.drain_lag * 1e3, "ms");
  }

  // ParseRequest over every request line of the schedule, to >= 100 ms.
  {
    Scope span(&tracer, "ParseRequest", "serve");
    size_t bytes = 0;
    const double t0 = Now();
    bool parsed = true;
    while (Now() - t0 < 0.1) {
      for (const std::string& line : in.lines) {
        parsed = parsed && hgm::serve::ParseRequest(line).ok();
        bytes += line.size();
      }
    }
    out.Check(parsed, "a scheduled request does not parse");
    out.Add("serve.parse_us_per_kb",
            (Now() - t0) * 1e6 / (static_cast<double>(bytes) / 1024.0), "us");
  }

  // Synchronous Handle on the idle server: each class's execution time
  // without queueing.  A push makes the next mine miss; repeating it hits.
  std::map<std::string, std::vector<double>> exec;
  const size_t pool_base = in.push_pool.size() - kExecReplays * kPushRows;
  for (size_t r = 0; r < kExecReplays; ++r) {
    auto timed = [&](const std::string& cls, const std::string& line) {
      Scope span(&tracer, "Server::Handle", "serve");
      const double t0 = Now();
      const std::string reply = server->Handle(line);
      exec[cls].push_back(Now() - t0);
      const bool cached =
          reply.find("\"from_cache\":true") != std::string::npos;
      out.Check(IsOk(reply) && (cls == "mine_hit") == cached,
                "idle replay " + cls + " failed: " + reply);
    };
    const uint64_t id = 800000 + r * 4;
    timed("support", SupportLine(id, 0, static_cast<uint32_t>(r % kItems),
                                 static_cast<uint32_t>((r + 1) % kItems)));
    timed("push", PushLine(id + 1, 0, in.push_pool,
                           pool_base + r * kPushRows));
    timed("mine_miss", MineLine(id + 2, 0, MineSupport(3)));
    timed("mine_hit", MineLine(id + 3, 0, MineSupport(3)));
  }
  std::map<std::string, double> exec_p50;
  for (const auto& [cls, v] : exec) {
    exec_p50[cls] = Median(v);
    out.Add("serve.exec_ms_p50." + cls, exec_p50[cls] * 1e3, "ms");
  }
  if (!replay) {  // a replayed request never queues
    std::vector<double> wait;
    for (size_t i = 0; i < pass.replies.size(); ++i) {
      wait.push_back(pass.latency[i] -
                     exec_p50[ReplyClass(in.schedule[i], pass.replies[i])]);
    }
    out.Add("serve.queue_wait_ms_p99", TailPercentile(wait) * 1e3, "ms");
  }

  // The shared replays over session s0's initial rows.
  hgm::TransactionDatabase db =
      hgm::TransactionDatabase::FromRows(kItems, in.sessions[0]);
  hgm::ThreadPool pool(1);
  hgm::AprioriOptions options;
  options.pool = &pool;
  const hgm::AprioriResult ref =
      hgm::MineFrequentSets(&db, MineSupport(3), options);
  AddTheoryReplays(&db, MineSupport(3), ref, &pool, &tracer, &out);
  FinishTrace(args, tracer, *Percentile(untraced.latency, 50),
              *Percentile(pass.latency, 50), &out);
  return out;
}

}  // namespace perfbench
