#pragma once

/// \file flight_recorder.h
/// \brief Crash-safe black box: a fixed-capacity lock-free ring of
/// structured events, dumpable from fatal paths.
///
/// The metrics registry answers "how much"; the tracer answers "how long".
/// Neither survives a crash: a `HGMINE_CHECK` failure or a fatal signal in
/// hour three of a long mining run leaves nothing but the abort message.
/// The flight recorder fills that gap.  Every structural event — phase
/// transitions, level advances, budget trips, shard retries/failovers,
/// audit violations, checkpoint saves/loads — is recorded into a
/// fixed-size ring that is:
///
///  * always on: you cannot enable a black box after the crash.  A
///    Record() is one relaxed fetch_add plus ~90 bytes of atomic stores, and
///    events are structural (per level / per retry, never per query), so
///    the steady-state cost is unmeasurable;
///  * lock-free and allocation-free: Record() is safe from signal
///    handlers and from inside the check-failure path, where taking a
///    mutex or calling malloc could deadlock a wedged process;
///  * bounded: the newest `capacity()` events win; older ones are
///    overwritten in place, which is exactly the forensic contract ("the
///    last N things the miner did").
///
/// InstallCrashHandlers() arms three dump paths once a dump file is
/// configured with SetDumpPath():
///  1. the HGMINE_CHECK failure hook (common/check.h) — the check's
///     message becomes the final kCheckFailure event;
///  2. SIGSEGV/SIGABRT handlers using only async-signal-safe calls
///     (open/write/close with pre-formatted fixed-size buffers);
///  3. budget trips (common/run_budget.h) when EnableDumpOnTrip() is on —
///     a trip is not fatal, but a long-running service wants the
///     surrounding events persisted while they are still in the ring.
///
/// Concurrency: writers claim slots with an atomic sequence counter and
/// publish each slot with a seqlock — the payload words are relaxed
/// atomics stored between clearing the slot's sequence number and a
/// release store of it, and readers (Snapshot, the dumps) keep a copy only
/// when the sequence number reads the same before and after.  A slot being
/// rewritten is therefore skipped, never read torn.  The one exception is
/// two writers more than `capacity` events apart racing on one slot; the
/// dump then may keep a record mixing their payloads (still no data race).

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace hgm {
namespace obs {

/// What kind of structural event a ring slot holds.
enum class FlightEventType : uint8_t {
  kPhase = 0,       ///< a miner phase started (label = phase name)
  kLevel,           ///< levelwise/D&A advanced a level (a = level, b = |C|)
  kBudgetTrip,      ///< RunBudget tripped (label = stop reason)
  kShardRetry,      ///< partition shard retry (a = shard, b = attempt)
  kShardFailover,   ///< shard permanently failed past its retry cap
  kAuditViolation,  ///< paper-contract auditor fired (label = contract)
  kCheckFailure,    ///< HGMINE_CHECK failed (label = truncated message)
  kCheckpoint,      ///< checkpoint saved/loaded (label = "save"/"load")
  kSignal,          ///< fatal signal caught (a = signo)
  kMark,            ///< free-form application marker
};

/// Stable name for \p t ("phase", "budget_trip", ...).
const char* FlightEventTypeName(FlightEventType t);

/// One recorded event, as Snapshot() returns it.
struct FlightEvent {
  static constexpr size_t kLabelBytes = 48;

  uint64_t seq = 0;    ///< 1-based global order; 0 marks a never-written slot
  uint64_t ts_us = 0;  ///< microseconds since recorder construction
  uint32_t tid = 0;    ///< dense per-thread id (first-use assigned)
  FlightEventType type = FlightEventType::kMark;
  char label[kLabelBytes] = {};  ///< NUL-terminated, truncated, printable
  int64_t a = 0;  ///< small payload, meaning per type (level, shard, signo)
  int64_t b = 0;  ///< second payload (candidate count, attempt, ...)
};

/// The process-wide ring.  See file comment for the contract.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  static FlightRecorder& Global();

  /// Records one event.  Lock-free, allocation-free, async-signal-safe.
  /// Non-printable label bytes are mapped to '?' and long labels are
  /// truncated to FlightEvent::kLabelBytes - 1.
  void Record(FlightEventType type, const char* label, int64_t a = 0,
              int64_t b = 0);

  /// The surviving events, oldest first.  Torn slots (overwritten while
  /// being read) are skipped.  Not for use from signal handlers.
  std::vector<FlightEvent> Snapshot() const;

  /// Total events ever recorded (>= Snapshot().size()).
  uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Re-sizes the ring and drops all buffered events.  NOT thread-safe
  /// against concurrent Record(): call during startup/configuration,
  /// before the run, like Tracer::Start().
  void SetCapacity(size_t capacity);

  /// Drops all buffered events (slots stay allocated).
  void Clear();

  /// Structured JSON dump: {"flight_recorder": {"total": N, "dropped": M,
  /// "events": [...]}}.
  void WriteJson(std::ostream& os) const;

  /// Async-signal-safe dump to an open file descriptor: same JSON shape,
  /// formatted with snprintf into stack buffers, emitted with write(2).
  void DumpToFd(int fd) const;

  /// Opens \p path (O_CREAT|O_TRUNC) and DumpToFd()s into it.  Returns
  /// false when the open fails.  Async-signal-safe.
  bool DumpToFile(const char* path) const;

  /// Configures the crash-dump destination (copied into a fixed buffer so
  /// the fatal paths never allocate).  Empty path disables dumping.
  void SetDumpPath(const std::string& path);
  const char* dump_path() const { return dump_path_; }

  /// When on, a RunBudget trip writes a dump to dump_path() (at most one
  /// dump per process unless re-armed; the fatal paths share the latch).
  void EnableDumpOnTrip(bool on) {
    dump_on_trip_.store(on, std::memory_order_relaxed);
  }
  bool dump_on_trip() const {
    return dump_on_trip_.load(std::memory_order_relaxed);
  }

  /// Dumps to dump_path() if configured and the once-latch is free.
  /// Returns true when a dump was written.  Async-signal-safe.
  bool DumpOnce(const char* why);

  /// Re-arms DumpOnce (tests; a resumed service run after a handled trip).
  void RearmDump() { dumped_.store(false, std::memory_order_relaxed); }

 private:
  /// ts_us, tid|type, a, b, then the label bytes.
  static constexpr size_t kPayloadWords = 4 + FlightEvent::kLabelBytes / 8;

  /// One ring slot.  Fixed size and lock-free: filling one never
  /// allocates or blocks, so Record() stays signal-safe.
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 while unwritten or being written
    std::atomic<uint64_t> words[kPayloadWords] = {};
  };

  FlightRecorder();

  /// Copies the event with sequence number \p s (0-based) into \p out;
  /// false when its slot is unwritten, overwritten or being written.
  bool ReadSlot(uint64_t s, FlightEvent* out) const;

  std::unique_ptr<Slot[]> slots_;
  size_t capacity_ = kDefaultCapacity;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<bool> dump_on_trip_{false};
  std::atomic<bool> dumped_{false};
  char dump_path_[512] = {};
  int64_t origin_ns_ = 0;
};

/// Arms the crash paths: installs the HGMINE_CHECK failure hook and the
/// SIGSEGV/SIGABRT handlers (previous handlers are replaced; the default
/// action is restored and the signal re-raised after the dump, so cores
/// and exit codes are unchanged).  Idempotent.  A dump is only written
/// once a path is configured via FlightRecorder::SetDumpPath().
void InstallCrashHandlers();

/// Records a budget trip (called by BudgetTracker; exposed for tests).
void RecordBudgetTrip(const char* stop_reason, uint64_t queries);

}  // namespace obs
}  // namespace hgm
