// hgmine_cli: command-line frequent-set / maximal-set / rule miner.
//
// Usage:
//   hgmine_cli mine <basket-file> <min-support> [--rules <min-conf>]
//                   [--maximal] [--closed] [--algo levelwise|dualize|dfs]
//                   [--shards=K] [--metrics=<path|->] [--trace=<path>]
//                   [--report=<path|->] [--flight=<path>]
//                   [--deadline-ms=N] [--max-queries=N]
//                   [--checkpoint=<path>] [--resume=<path>]
//                   [--chaos-seed=N]
//   hgmine_cli follow <basket-file|-> <min-support> --window=N [--slide=M]
//                   [--items=U] [--cross-check] [--metrics=<path|->]
//                   [--trace=<path>] [--report=<path|->] [--flight=<path>]
//                   [--deadline-ms=N] [--max-queries=N]
//                   [--checkpoint=<path>]
//   hgmine_cli demo
//
// Basket format: one transaction per line, whitespace-separated item ids;
// '#' comments.  `demo` writes a small file and mines it, so the tool is
// runnable with no inputs.
//
// `follow` consumes an append-only basket stream ('-' reads stdin) through
// the incremental StreamMiner: a sliding window of N rows advancing M rows
// at a time (default M = N, a tumbling window), the borders repaired at
// each boundary instead of re-mined.  One summary line is printed per
// window boundary; --report emits one run-report envelope per boundary
// ('-' streams them to stdout, a path gets a .w<k>.json suffix per
// boundary).  --deadline-ms / --max-queries budget each boundary's repair;
// a trip prints the certified prefix, saves --checkpoint if given, and
// exits 3.  --cross-check re-derives Bd- from Th via the Theorem-7 Berge
// dualization at every boundary and aborts on drift.
//
// --shards=K       mines through the sharded partition backend (K row
//                  shards, two-phase confirmation) instead of the
//                  single-database Apriori; output is bit-identical;
// --metrics=-      prints the telemetry registry as a table, plus the
//                  paper-bound report (Theorem 10 / Corollary 13 ratios)
//                  when a levelwise or dualize run populated its gauges;
// --metrics=<path> writes the same data as JSON;
// --trace=<path>   writes Chrome/Perfetto trace-event JSON (load it in
//                  chrome://tracing or ui.perfetto.dev);
// --report=<path|-> emits the schema-versioned hgm.run_report envelope
//                  (host/build/dataset fingerprints, effective config,
//                  per-phase wall times, metrics, bound reports, budget
//                  outcome, checkpoint lineage, memory telemetry, and
//                  the flight ring); implies metrics + tracing.  Written
//                  for completed AND budget-tripped runs;
// --flight=<path>  arms crash forensics: installs the HGMINE_CHECK and
//                  fatal-signal (SIGSEGV/SIGABRT) handlers and dumps the
//                  flight-recorder ring to <path> on a crash or budget
//                  trip — the always-on ring means the events leading up
//                  to the failure are already buffered;
// --deadline-ms=N  wall-clock budget: the miner stops at the next level
//                  boundary after N ms and reports its certified prefix;
// --max-queries=N  support-count budget, same anytime semantics;
// --checkpoint=<p> where to write the resume state when a budget trips
//                  (exit code 3 marks the partial run);
// --resume=<p>     continue a checkpointed run; the combined output is
//                  bit-identical to one uninterrupted run;
// --chaos-seed=N   (with --shards) injects seeded transient shard faults
//                  into phase 1 to exercise the retry/failover path; the
//                  mined output must be identical to a fault-free run.
//
// Exit codes: 0 complete, 1 I/O or internal error, 2 usage error,
// 3 budget tripped (partial result; checkpoint written if requested).
// SIGTERM/SIGINT cancel the run's budget token, so an interrupted run
// takes the same exit-3 path: certified prefix printed, checkpoint
// written when --checkpoint is given, resumable with --resume.

#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/parse.h"
#include "common/table_printer.h"
#include "core/checkpoint.h"
#include "mining/apriori.h"
#include "mining/closed.h"
#include "mining/max_miner.h"
#include "mining/partition.h"
#include "mining/rules.h"
#include "mining/sharded_db.h"
#include "mining/stream.h"
#include "mining/transaction_db.h"
#include "obs/bound_report.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "testing/fault_injection.h"

namespace {

/// Flipped by SIGTERM/SIGINT.  Every budgeted engine run carries a token
/// from this source, so an interrupt is just one more budget trip: the
/// miner stops at the next safe boundary, prints the certified prefix,
/// writes --checkpoint if given, and exits 3 — a ^C'd run is resumable
/// with --resume exactly like a deadline-tripped one.
hgm::CancellationSource g_interrupt;

void OnInterrupt(int) { g_interrupt.RequestCancel(); }

void InstallInterruptHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnInterrupt;  // RequestCancel is one atomic store
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

int Usage() {
  std::cerr
      << "usage: hgmine_cli mine <basket-file> <min-support>\n"
         "                  [--rules <min-conf>] [--maximal] [--closed]\n"
         "                  [--algo levelwise|dualize|dfs] [--shards=K]\n"
         "                  [--metrics=<path|->] [--trace=<path>]\n"
         "                  [--report=<path|->] [--flight=<path>]\n"
         "                  [--deadline-ms=N] [--max-queries=N]\n"
         "                  [--checkpoint=<path>] [--resume=<path>]\n"
         "                  [--chaos-seed=N]\n"
         "       hgmine_cli follow <basket-file|-> <min-support> --window=N\n"
         "                  [--slide=M] [--items=U] [--cross-check]\n"
         "                  [--metrics=<path|->] [--trace=<path>]\n"
         "                  [--report=<path|->] [--flight=<path>]\n"
         "                  [--deadline-ms=N] [--max-queries=N]\n"
         "                  [--checkpoint=<path>]\n"
         "       hgmine_cli demo\n";
  return 2;
}

/// Strict flag-value parsing: --foo=12x, --foo=-3, and --foo=99999999...
/// are all usage errors with one-line messages, not silent zeros.
bool ParseFlagUint(const std::string& flag, const std::string& value,
                   uint64_t max_value, uint64_t* out) {
  hgm::Status s = hgm::ParseUnsignedToken(value, max_value, flag, 0, out);
  if (!s.ok()) {
    std::cerr << "error: " << s.message() << "\n";
    return false;
  }
  return true;
}

/// Exports the metrics registry (plus any bound report whose gauges are
/// populated) to stdout as tables, or to a file as one JSON object.
int ExportMetrics(const std::string& dest) {
  using namespace hgm;
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const bool have_levelwise = snap.GaugeValue("levelwise.last_width") != 0;
  const bool have_da = snap.GaugeValue("da.last_width") != 0;
  const bool have_partition = snap.GaugeValue("partition.last_shards") != 0;
  const bool have_stream = snap.GaugeValue("stream.last_window_rows") != 0;
  if (dest == "-") {
    std::cout << "\ntelemetry:\n";
    obs::PrintMetricsTable(snap, std::cout);
    if (have_levelwise) {
      std::cout << "\nlevelwise bound report:\n";
      obs::LevelwiseBoundReportFromRegistry(snap).Print(std::cout);
    }
    if (have_da) {
      std::cout << "\ndualize-advance bound report:\n";
      obs::DualizeAdvanceBoundReportFromRegistry(snap).Print(std::cout);
    }
    if (have_partition) {
      std::cout << "\npartition bound report:\n";
      obs::PartitionBoundReportFromRegistry(snap).Print(std::cout);
    }
    if (have_stream) {
      std::cout << "\nstream bound report (last boundary):\n";
      obs::StreamBoundReportFromRegistry(snap).Print(std::cout);
    }
    return 0;
  }
  std::ofstream out(dest);
  if (!out) {
    std::cerr << "error: cannot write metrics to " << dest << "\n";
    return 1;
  }
  out << "{\"metrics\": ";
  obs::WriteJsonSnapshot(snap, out, 2);
  if (have_levelwise) {
    out << ",\n\"levelwise_bounds\": ";
    obs::LevelwiseBoundReportFromRegistry(snap).WriteJson(out, 2);
  }
  if (have_da) {
    out << ",\n\"dualize_advance_bounds\": ";
    obs::DualizeAdvanceBoundReportFromRegistry(snap).WriteJson(out, 2);
  }
  if (have_partition) {
    out << ",\n\"partition_bounds\": ";
    obs::PartitionBoundReportFromRegistry(snap).WriteJson(out, 2);
  }
  if (have_stream) {
    out << ",\n\"stream_bounds\": ";
    obs::StreamBoundReportFromRegistry(snap).WriteJson(out, 2);
  }
  out << "}\n";
  return 0;
}

std::vector<std::string> ItemNames(size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) names.push_back("i" + std::to_string(i));
  return names;
}

/// Per-boundary report destination: "-" streams envelopes to stdout; a
/// path (with or without a trailing .json) becomes <base>.w<k>.json.
std::string BoundaryReportPath(const std::string& base, size_t boundary) {
  std::string stem = base;
  const std::string ext = ".json";
  if (stem.size() > ext.size() &&
      stem.compare(stem.size() - ext.size(), ext.size(), ext) == 0) {
    stem.resize(stem.size() - ext.size());
  }
  return stem + ".w" + std::to_string(boundary) + ".json";
}

/// The `follow` subcommand: incremental border maintenance over an
/// append-only basket stream (see the file comment for semantics).
int RunFollow(const std::vector<std::string>& args) {
  using namespace hgm;
  if (args.size() < 3) return Usage();
  const std::string path = args[1];
  uint64_t v = 0;
  if (!ParseFlagUint("min-support", args[2],
                     std::numeric_limits<uint32_t>::max(), &v)) {
    return 2;
  }
  const size_t min_support = static_cast<size_t>(v);
  uint64_t window_rows = 0, slide_rows = 0, num_items = 0;
  uint64_t deadline_ms = 0, max_queries = 0;
  bool cross_check = false;
  std::string metrics_dest, trace_path, report_path, flight_path;
  std::string checkpoint_path;
  for (size_t i = 3; i < args.size(); ++i) {
    if (args[i].rfind("--window=", 0) == 0) {
      if (!ParseFlagUint("--window", args[i].substr(9), 1u << 30,
                         &window_rows)) {
        return 2;
      }
    } else if (args[i].rfind("--slide=", 0) == 0) {
      if (!ParseFlagUint("--slide", args[i].substr(8), 1u << 30,
                         &slide_rows)) {
        return 2;
      }
    } else if (args[i].rfind("--items=", 0) == 0) {
      if (!ParseFlagUint("--items", args[i].substr(8), 1u << 20,
                         &num_items)) {
        return 2;
      }
    } else if (args[i] == "--cross-check") {
      cross_check = true;
    } else if (args[i].rfind("--deadline-ms=", 0) == 0) {
      if (!ParseFlagUint("--deadline-ms", args[i].substr(14),
                         std::numeric_limits<uint32_t>::max(),
                         &deadline_ms)) {
        return 2;
      }
    } else if (args[i].rfind("--max-queries=", 0) == 0) {
      if (!ParseFlagUint("--max-queries", args[i].substr(14),
                         std::numeric_limits<uint64_t>::max() - 1,
                         &max_queries)) {
        return 2;
      }
    } else if (args[i].rfind("--checkpoint=", 0) == 0) {
      checkpoint_path = args[i].substr(13);
      if (checkpoint_path.empty()) return Usage();
    } else if (args[i].rfind("--metrics=", 0) == 0) {
      metrics_dest = args[i].substr(10);
      if (metrics_dest.empty()) return Usage();
    } else if (args[i].rfind("--trace=", 0) == 0) {
      trace_path = args[i].substr(8);
      if (trace_path.empty()) return Usage();
    } else if (args[i].rfind("--report=", 0) == 0) {
      report_path = args[i].substr(9);
      if (report_path.empty()) return Usage();
    } else if (args[i].rfind("--flight=", 0) == 0) {
      flight_path = args[i].substr(9);
      if (flight_path.empty()) return Usage();
    } else {
      std::cerr << "error: unknown argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  if (window_rows == 0) {
    std::cerr << "error: follow requires --window=N (rows per window)\n";
    return 2;
  }
  if (slide_rows == 0) slide_rows = window_rows;  // tumbling
  if (window_rows % slide_rows != 0) {
    std::cerr << "error: --slide must divide --window (expiry drops whole "
                 "buckets)\n";
    return 2;
  }

  const bool want_report = !report_path.empty();
  if (!metrics_dest.empty() || want_report) obs::EnableMetrics(true);
  if (!trace_path.empty() || want_report) obs::Tracer::Global().Start();
  if (!flight_path.empty()) {
    obs::FlightRecorder::Global().SetDumpPath(flight_path.c_str());
    obs::FlightRecorder::Global().EnableDumpOnTrip(true);
    obs::InstallCrashHandlers();
  }

  // The append-only stream, replayed in arrival order.  '-' reads stdin
  // to EOF; a declared --items universe lets rows mention items the
  // early stream prefix has not shown yet.
  Result<TransactionDatabase> loaded = [&]() {
    if (path != "-") {
      return TransactionDatabase::LoadBasketFile(
          path, static_cast<size_t>(num_items));
    }
    std::ostringstream text;
    text << std::cin.rdbuf();
    return TransactionDatabase::ParseBasketText(
        text.str(), static_cast<size_t>(num_items), "<stdin>");
  }();
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  TransactionDatabase feed = std::move(loaded.value());
  std::cout << "following " << feed.num_transactions() << " rows over "
            << feed.num_items() << " items from " << path << " (window "
            << window_rows << ", slide " << slide_rows << ")\n";

  StreamOptions sopts;
  sopts.slide_rows = static_cast<size_t>(slide_rows);
  sopts.cross_check_borders = cross_check;
  sopts.budget.max_duration = std::chrono::milliseconds(deadline_ms);
  sopts.budget.max_queries = max_queries;
  sopts.budget.cancel = g_interrupt.token();
  StreamMiner miner(feed.num_items(), min_support,
                    static_cast<size_t>(window_rows), sopts);

  // One envelope per boundary: fingerprint of the window's rows, the
  // boundary's border/accounting stats, the stream bound report, and the
  // cumulative telemetry/flight ring at that point.
  auto write_boundary_report = [&](const StreamWindowResult& r,
                                   double wall_ms,
                                   const std::string& cp_written) -> int {
    if (!want_report) return 0;
    obs::RunReport report;
    report.kind = "stream";
    report.name = "hgmine_cli follow";
    report.host = obs::CollectHostInfo();
    report.build = obs::CollectBuildInfo();
    report.args = args;
    report.wall_ms = wall_ms;
    report.AddConfig("min_support", static_cast<uint64_t>(min_support));
    report.AddConfig("window_rows", window_rows);
    report.AddConfig("slide_rows", slide_rows);
    report.AddConfig("window_index", static_cast<uint64_t>(r.window_index));
    report.AddConfig("frequent", static_cast<uint64_t>(r.frequent.size()));
    report.AddConfig("maximal", static_cast<uint64_t>(r.maximal.size()));
    report.AddConfig("negative_border",
                     static_cast<uint64_t>(r.negative_border.size()));
    report.AddConfig("evaluations", r.evaluations);
    report.AddConfig("reused", r.reused);
    report.AddConfig("promoted", static_cast<uint64_t>(r.promoted));
    report.AddConfig("demoted", static_cast<uint64_t>(r.demoted));
    obs::DatasetInfo ds;
    ds.path = path;
    ds.rows = r.rows_in_window;
    ds.items = feed.num_items();
    obs::Fnv1a64 hash;
    hash.UpdateU64(feed.num_items());
    TransactionDatabase window = miner.WindowSnapshot();
    for (const Bitset& row : window.rows()) {
      for (uint64_t w : row.words()) hash.UpdateU64(w);
    }
    ds.fingerprint = hash.HexDigest();
    report.dataset = ds;
    obs::BudgetOutcome outcome;
    outcome.stop_reason = StopReasonName(r.stop_reason);
    outcome.queries = r.evaluations;
    outcome.deadline_ms = deadline_ms;
    outcome.max_queries = max_queries;
    report.budget = outcome;
    if (!cp_written.empty()) {
      obs::CheckpointLineage lineage;
      lineage.written_to = cp_written;
      lineage.kind = "stream";
      report.checkpoint = lineage;
    }
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    if (r.stop_reason == StopReason::kCompleted) {
      // The stream.last_* gauges belong to this completed boundary; a
      // tripped boundary never set them.
      report.bounds.emplace_back("stream",
                                 obs::StreamBoundReportFromRegistry(snap));
    }
    report.metrics = std::move(snap);
    report.phases = obs::Tracer::Global().PhaseTotals();
    report.memory = obs::ReadMemory();
    if (obs::AllocationCountingAvailable()) {
      report.alloc = obs::GlobalAllocStats();
    }
    report.flight = obs::FlightRecorder::Global().Snapshot();
    if (report_path == "-") {
      report.WriteJson(std::cout);
      return 0;
    }
    const std::string dest = BoundaryReportPath(report_path, r.window_index);
    std::ofstream out(dest);
    if (!out) {
      std::cerr << "error: cannot write run report to " << dest << "\n";
      return 1;
    }
    report.WriteJson(out);
    return 0;
  };

  int rc = 0;
  size_t boundaries = 0;
  for (const Bitset& row : feed.rows()) {
    if (!miner.Push(row)) continue;
    const auto t0 = std::chrono::steady_clock::now();
    StreamWindowResult r = miner.AdvanceWindow();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (r.stop_reason != StopReason::kCompleted) {
      std::cout << "window " << r.window_index << ": stopped early ("
                << StopReasonName(r.stop_reason)
                << "); borders above level "
                << (r.frequent.empty() ? 0
                                       : r.frequent.back().items.Count())
                << " are the certified prefix\n";
      std::string cp_written;
      if (!checkpoint_path.empty()) {
        if (!r.checkpoint) {
          std::cerr << "error: budget tripped but no checkpoint was "
                       "produced\n";
          return 1;
        }
        Status s = SaveCheckpointFile(*r.checkpoint, checkpoint_path);
        if (!s.ok()) {
          std::cerr << "error: " << s.ToString() << "\n";
          return 1;
        }
        cp_written = checkpoint_path;
        std::cout << "checkpoint written to " << checkpoint_path << "\n";
      }
      if (write_boundary_report(r, wall_ms, cp_written) != 0) return 1;
      return 3;
    }
    std::cout << "window " << r.window_index << ": rows="
              << r.rows_in_window << " frequent=" << r.frequent.size()
              << " bd+=" << r.maximal.size()
              << " bd-=" << r.negative_border.size() << " fresh="
              << r.evaluations << " reused=" << r.reused << " (+"
              << r.promoted << "/-" << r.demoted << ")\n";
    if (write_boundary_report(r, wall_ms, "") != 0) rc = 1;
    ++boundaries;
  }
  if (boundaries == 0) {
    std::cerr << "error: stream ended before the first slide filled ("
              << feed.num_transactions() << " rows < " << slide_rows
              << ")\n";
    return 1;
  }
  const size_t buffered =
      feed.num_transactions() - boundaries * static_cast<size_t>(slide_rows);
  if (buffered > 0) {
    std::cout << buffered << " trailing rows buffered (slide not full)\n";
  }
  std::vector<TiltedSummary> history = miner.TiltedHistory();
  if (!history.empty()) {
    std::cout << "tilted history (oldest first):";
    for (const TiltedSummary& cell : history) {
      std::cout << " " << cell.rows << "r/" << cell.buckets << "b";
    }
    std::cout << "\n";
  }
  if (!trace_path.empty()) {
    obs::Tracer::Global().Stop();
    std::ofstream out(trace_path);
    if (out) {
      obs::Tracer::Global().WriteJson(out);
    } else {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      rc = 1;
    }
  }
  if (!metrics_dest.empty()) {
    int metrics_rc = ExportMetrics(metrics_dest);
    if (metrics_rc != 0) rc = metrics_rc;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hgm;
  InstallInterruptHandlers();
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();

  std::string path;
  size_t min_support = 2;
  if (args[0] == "demo") {
    path = "/tmp/hgmine_demo.basket";
    std::ofstream out(path);
    out << "# Figure 1 of Gunopulos/Khardon/Mannila/Toivonen, PODS'97\n"
        << "0 1 2\n0 1 2\n1 3\n1 3\n0 3\n";
    args = {"mine", path, "2", "--rules", "0.6", "--maximal", "--closed"};
  }
  if (args[0] == "follow" || args[0] == "--follow") return RunFollow(args);
  if (args.size() < 3 || args[0] != "mine") return Usage();
  path = args[1];
  {
    uint64_t v = 0;
    if (!ParseFlagUint("min-support", args[2],
                       std::numeric_limits<uint32_t>::max(), &v)) {
      return 2;
    }
    min_support = static_cast<size_t>(v);
  }
  bool want_maximal = false, want_closed = false, want_rules = false;
  double min_conf = 0.5;
  size_t num_shards = 0;  // 0 = single-database Apriori path
  std::string metrics_dest;  // empty = not requested; "-" = stdout
  std::string trace_path;
  uint64_t deadline_ms = 0;
  uint64_t max_queries = 0;
  std::string checkpoint_path;  // where to save on a budget trip
  std::string resume_path;      // checkpoint to continue from
  bool have_chaos = false;
  uint64_t chaos_seed = 0;
  std::string report_path;    // run-report envelope destination; "-" = stdout
  std::string flight_path;    // crash-forensics dump destination
  MaxMinerAlgorithm algo = MaxMinerAlgorithm::kDualizeAdvance;
  for (size_t i = 3; i < args.size(); ++i) {
    if (args[i] == "--maximal") {
      want_maximal = true;
    } else if (args[i] == "--closed") {
      want_closed = true;
    } else if (args[i].rfind("--shards=", 0) == 0) {
      uint64_t v = 0;
      if (!ParseFlagUint("--shards", args[i].substr(9), 1u << 20, &v)) {
        return 2;
      }
      num_shards = static_cast<size_t>(v);
      if (num_shards == 0) {
        std::cerr << "error: --shards must be >= 1\n";
        return 2;
      }
    } else if (args[i].rfind("--deadline-ms=", 0) == 0) {
      if (!ParseFlagUint("--deadline-ms", args[i].substr(14),
                         std::numeric_limits<uint32_t>::max(),
                         &deadline_ms)) {
        return 2;
      }
    } else if (args[i].rfind("--max-queries=", 0) == 0) {
      if (!ParseFlagUint("--max-queries", args[i].substr(14),
                         std::numeric_limits<uint64_t>::max() - 1,
                         &max_queries)) {
        return 2;
      }
    } else if (args[i].rfind("--checkpoint=", 0) == 0) {
      checkpoint_path = args[i].substr(13);
      if (checkpoint_path.empty()) return Usage();
    } else if (args[i].rfind("--resume=", 0) == 0) {
      resume_path = args[i].substr(9);
      if (resume_path.empty()) return Usage();
    } else if (args[i].rfind("--chaos-seed=", 0) == 0) {
      if (!ParseFlagUint("--chaos-seed", args[i].substr(13),
                         std::numeric_limits<uint64_t>::max() - 1,
                         &chaos_seed)) {
        return 2;
      }
      have_chaos = true;
    } else if (args[i].rfind("--metrics=", 0) == 0) {
      metrics_dest = args[i].substr(10);
      if (metrics_dest.empty()) return Usage();
    } else if (args[i].rfind("--trace=", 0) == 0) {
      trace_path = args[i].substr(8);
      if (trace_path.empty()) return Usage();
    } else if (args[i].rfind("--report=", 0) == 0) {
      report_path = args[i].substr(9);
      if (report_path.empty()) return Usage();
    } else if (args[i].rfind("--flight=", 0) == 0) {
      flight_path = args[i].substr(9);
      if (flight_path.empty()) return Usage();
    } else if (args[i] == "--rules" && i + 1 < args.size()) {
      want_rules = true;
      char* end = nullptr;
      min_conf = std::strtod(args[++i].c_str(), &end);
      if (end == args[i].c_str() || *end != '\0' || min_conf < 0 ||
          min_conf > 1) {
        std::cerr << "error: --rules confidence must be a number in [0,1]"
                  << ", got '" << args[i] << "'\n";
        return 2;
      }
    } else if (args[i] == "--algo" && i + 1 < args.size()) {
      const std::string& a = args[++i];
      if (a == "levelwise") {
        algo = MaxMinerAlgorithm::kLevelwise;
      } else if (a == "dualize") {
        algo = MaxMinerAlgorithm::kDualizeAdvance;
      } else if (a == "dfs") {
        algo = MaxMinerAlgorithm::kDepthFirst;
      } else {
        std::cerr << "error: unknown --algo '" << a << "'\n";
        return 2;
      }
    } else {
      std::cerr << "error: unknown argument '" << args[i] << "'\n";
      return Usage();
    }
  }
  if (have_chaos && num_shards == 0) {
    std::cerr << "error: --chaos-seed requires --shards=K (faults are "
                 "injected into phase-1 shard mining)\n";
    return 2;
  }

  // A run report needs the metrics snapshot and the tracer's phase
  // totals, so --report implies both collectors.
  const bool want_report = !report_path.empty();
  if (!metrics_dest.empty() || want_report) obs::EnableMetrics(true);
  if (!trace_path.empty() || want_report) obs::Tracer::Global().Start();
  if (!flight_path.empty()) {
    obs::FlightRecorder::Global().SetDumpPath(flight_path.c_str());
    obs::FlightRecorder::Global().EnableDumpOnTrip(true);
    obs::InstallCrashHandlers();
  }
  const auto run_start = std::chrono::steady_clock::now();

  auto loaded = TransactionDatabase::LoadBasketFile(path);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  TransactionDatabase db = std::move(loaded.value());
  std::cout << "loaded " << db.num_transactions() << " transactions over "
            << db.num_items() << " items from " << path << "\n";

  obs::RunReport report;
  if (want_report) {
    report.kind = "cli";
    report.name = "hgmine_cli";
    report.host = obs::CollectHostInfo();
    report.build = obs::CollectBuildInfo();
    report.args = args;
    report.AddConfig("min_support", static_cast<uint64_t>(min_support));
    report.AddConfig("shards", static_cast<uint64_t>(num_shards));
    report.AddConfig("maximal", want_maximal);
    report.AddConfig("closed", want_closed);
    report.AddConfig("rules", want_rules);
    report.AddConfig("deadline_ms", deadline_ms);
    report.AddConfig("max_queries", max_queries);
    // Fingerprint the transaction contents so two envelopes are known to
    // have mined the same data before anyone diffs their timings.
    obs::DatasetInfo ds;
    ds.path = path;
    ds.rows = db.num_transactions();
    ds.items = db.num_items();
    obs::Fnv1a64 hash;
    hash.UpdateU64(db.num_items());
    for (const Bitset& row : db.rows()) {
      for (uint64_t w : row.words()) hash.UpdateU64(w);
    }
    ds.fingerprint = hash.HexDigest();
    report.dataset = ds;
  }

  RunBudget budget;
  budget.max_duration = std::chrono::milliseconds(deadline_ms);
  budget.max_queries = max_queries;
  budget.cancel = g_interrupt.token();

  std::optional<Checkpoint> resume_from;
  if (!resume_path.empty()) {
    auto cp = LoadCheckpointFile(resume_path);
    if (!cp.ok()) {
      std::cerr << "error: " << cp.status().ToString() << "\n";
      return 1;
    }
    resume_from = std::move(cp.value());
    const char* want = num_shards > 0 ? "partition" : "apriori";
    if (resume_from->kind != want) {
      std::cerr << "error: checkpoint kind '" << resume_from->kind
                << "' does not match this invocation (expected '" << want
                << "'; match the original run's --shards)\n";
      return 2;
    }
  }

  // Fills the run-dependent envelope sections and writes the report.
  // Called from both exits — the completed path and the budget-tripped
  // partial path — so a tripped run still leaves its full artifact.
  std::string checkpoint_written;  // set by finish_partial on save
  auto write_report = [&](const char* stop_reason,
                          uint64_t queries) -> int {
    if (!want_report) return 0;
    const auto elapsed = std::chrono::steady_clock::now() - run_start;
    report.wall_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    obs::BudgetOutcome outcome;
    outcome.stop_reason = stop_reason;
    outcome.queries = queries;
    outcome.deadline_ms = deadline_ms;
    outcome.max_queries = max_queries;
    report.budget = outcome;
    if (!resume_path.empty() || !checkpoint_written.empty()) {
      obs::CheckpointLineage lineage;
      lineage.resumed_from = resume_path;
      lineage.written_to = checkpoint_written;
      lineage.kind = num_shards > 0 ? "partition" : "apriori";
      report.checkpoint = lineage;
    }
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    if (snap.GaugeValue("levelwise.last_width") != 0) {
      report.bounds.emplace_back(
          "levelwise", obs::LevelwiseBoundReportFromRegistry(snap));
    }
    if (snap.GaugeValue("da.last_width") != 0) {
      report.bounds.emplace_back(
          "dualize_advance", obs::DualizeAdvanceBoundReportFromRegistry(snap));
    }
    if (snap.GaugeValue("partition.last_shards") != 0) {
      report.bounds.emplace_back(
          "partition", obs::PartitionBoundReportFromRegistry(snap));
    }
    report.metrics = std::move(snap);
    report.phases = obs::Tracer::Global().PhaseTotals();
    report.memory = obs::ReadMemory();
    if (obs::AllocationCountingAvailable()) {
      report.alloc = obs::GlobalAllocStats();
    }
    report.flight = obs::FlightRecorder::Global().Snapshot();
    if (report_path == "-") {
      report.WriteJson(std::cout);
      return 0;
    }
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "error: cannot write run report to " << report_path
                << "\n";
      return 1;
    }
    report.WriteJson(out);
    std::cout << "wrote run report to " << report_path
              << " (hgm.run_report schema v"
              << obs::RunReport::kSchemaVersion << ")\n";
    return 0;
  };

  // Shared partial-run epilogue: report the stop, persist the checkpoint
  // when asked, and exit 3 so scripts can tell "partial" from "failed".
  auto finish_partial = [&](StopReason reason,
                            const std::optional<Checkpoint>& cp,
                            uint64_t queries) -> int {
    std::cout << "stopped early (" << StopReasonName(reason)
              << "); result above is the certified prefix\n";
    if (!checkpoint_path.empty()) {
      if (!cp) {
        std::cerr << "error: budget tripped but no checkpoint was produced\n";
        return 1;
      }
      Status s = SaveCheckpointFile(*cp, checkpoint_path);
      if (!s.ok()) {
        std::cerr << "error: " << s.ToString() << "\n";
        return 1;
      }
      checkpoint_written = checkpoint_path;
      std::cout << "checkpoint written to " << checkpoint_path
                << " (resume with --resume=" << checkpoint_path << ")\n";
    }
    if (write_report(StopReasonName(reason), queries) != 0) return 1;
    return 3;
  };

  AprioriResult mined;
  if (num_shards > 0) {
    ShardedTransactionDatabase sharded =
        ShardedTransactionDatabase::Split(db, num_shards);
    PartitionOptions popts;
    popts.budget = budget;
    if (have_chaos) {
      // Seeded transient faults in phase 1; the retry rounds must heal
      // them and reproduce the fault-free output bit for bit.
      FaultSpec spec;
      spec.transient_rate = 0.4;
      spec.seed = chaos_seed;
      popts.shard_fault_hook = MakeShardFaultSchedule(spec);
      popts.retry.max_attempts = 6;
    }
    PartitionResult part;
    if (resume_from) {
      auto resumed = ResumePartition(&sharded, *resume_from, popts);
      if (!resumed.ok()) {
        std::cerr << "error: " << resumed.status().ToString() << "\n";
        return 1;
      }
      part = std::move(resumed.value());
    } else {
      part = MinePartitioned(&sharded, min_support, popts);
    }
    if (!part.status.ok()) {
      std::cerr << "warning: " << part.status.ToString() << "\n";
    }
    std::cout << part.frequent.size()
              << " frequent itemsets at support >= " << min_support
              << " via " << part.num_shards << " shards ("
              << part.phase2_evaluations << " phase-2 full-pass sets, "
              << part.phase2_reused << " reused from phase-1 counts, "
              << part.phase2_rejected << " rejected";
    if (part.shard_retries > 0) {
      std::cout << ", " << part.shard_retries << " shard retries";
    }
    std::cout << ")\n";
    if (part.stop_reason != StopReason::kCompleted) {
      return finish_partial(part.stop_reason, part.checkpoint,
                            part.phase2_evaluations);
    }
    TablePrinter shards({"shard", "rows", "local minsup", "local frequent"});
    for (size_t k = 0; k < part.num_shards; ++k) {
      shards.NewRow()
          .Add(k)
          .Add(sharded.manifest()[k].row_end - sharded.manifest()[k].row_begin)
          .Add(part.local_thresholds[k])
          .Add(part.local_frequent_per_shard[k]);
    }
    shards.Print();
    mined = AsAprioriResult(part);
  } else {
    AprioriOptions aopts;
    aopts.budget = budget;
    if (resume_from) {
      auto resumed = ResumeFrequentSets(&db, *resume_from, aopts);
      if (!resumed.ok()) {
        std::cerr << "error: " << resumed.status().ToString() << "\n";
        return 1;
      }
      mined = std::move(resumed.value());
    } else {
      mined = MineFrequentSets(&db, min_support, aopts);
    }
    std::cout << mined.frequent.size()
              << " frequent itemsets at support >= " << min_support << " ("
              << mined.support_counts << " support counts)\n";
    if (mined.stop_reason != StopReason::kCompleted) {
      return finish_partial(mined.stop_reason, mined.checkpoint,
                            mined.support_counts.load());
    }
    TablePrinter levels({"size", "candidates", "frequent"});
    for (size_t k = 0; k < mined.candidates_per_level.size(); ++k) {
      levels.NewRow().Add(k).Add(mined.candidates_per_level[k]).Add(
          k < mined.frequent_per_level.size() ? mined.frequent_per_level[k]
                                              : 0);
    }
    levels.Print();
  }

  auto names = ItemNames(db.num_items());
  if (want_maximal) {
    MaxMinerResult mx = MineMaximalFrequentSets(&db, min_support, algo);
    std::cout << "\nmaximal itemsets (" << ToString(algo) << ", "
              << mx.queries << " queries):\n";
    for (const auto& m : mx.maximal) {
      std::cout << "  " << m.Format(names, " ") << "\n";
    }
  }
  if (want_closed) {
    auto closed = MineClosedFrequentSets(&db, min_support);
    std::cout << "\n" << closed.size() << " closed itemsets (vs "
              << mined.frequent.size() << " frequent)\n";
  }
  if (want_rules) {
    auto rules_or = GenerateRules(mined, db.num_transactions(), min_conf);
    if (!rules_or.ok()) {
      std::cerr << "error: " << rules_or.status().ToString() << "\n";
      return 1;
    }
    const auto& rules = rules_or.value();
    std::cout << "\n" << rules.size() << " rules at confidence >= "
              << min_conf << ":\n";
    size_t shown = 0;
    for (const auto& rule : rules) {
      if (++shown > 20) {
        std::cout << "  ... (" << rules.size() - 20 << " more)\n";
        break;
      }
      std::cout << "  " << FormatRule(rule, names) << "\n";
    }
  }

  int rc = 0;
  if (!trace_path.empty()) {
    obs::Tracer::Global().Stop();
    std::ofstream out(trace_path);
    if (out) {
      obs::Tracer::Global().WriteJson(out);
      std::cout << "\nwrote " << obs::Tracer::Global().num_events()
                << " trace events to " << trace_path << "\n";
    } else {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      rc = 1;
    }
  }
  if (!metrics_dest.empty()) {
    int metrics_rc = ExportMetrics(metrics_dest);
    if (metrics_rc != 0) rc = metrics_rc;
  }
  int report_rc = write_report("completed", mined.support_counts.load());
  if (report_rc != 0) rc = report_rc;
  return rc;
}
