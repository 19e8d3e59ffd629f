#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace hgm {
namespace obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Dense thread ids, separate from the tracer's (the recorder must not
/// depend on tracing having ever been enabled).
uint32_t ThisThreadFlightId() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// write(2) a whole buffer, retrying on short writes.  Signal-safe.
void WriteAll(int fd, const char* buf, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, buf, n);
    if (w <= 0) return;  // best effort: a failing dump must not recurse
    buf += w;
    n -= static_cast<size_t>(w);
  }
}

void WriteStr(int fd, const char* s) { WriteAll(fd, s, std::strlen(s)); }

}  // namespace

const char* FlightEventTypeName(FlightEventType t) {
  switch (t) {
    case FlightEventType::kPhase:
      return "phase";
    case FlightEventType::kLevel:
      return "level";
    case FlightEventType::kBudgetTrip:
      return "budget_trip";
    case FlightEventType::kShardRetry:
      return "shard_retry";
    case FlightEventType::kShardFailover:
      return "shard_failover";
    case FlightEventType::kAuditViolation:
      return "audit_violation";
    case FlightEventType::kCheckFailure:
      return "check_failure";
    case FlightEventType::kCheckpoint:
      return "checkpoint";
    case FlightEventType::kSignal:
      return "signal";
    case FlightEventType::kMark:
      return "mark";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder()
    : slots_(std::make_unique<Slot[]>(kDefaultCapacity)),
      origin_ns_(SteadyNowNs()) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never dies
  return *recorder;
}

void FlightRecorder::Record(FlightEventType type, const char* label,
                            int64_t a, int64_t b) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  uint64_t payload[kPayloadWords] = {};
  payload[0] = static_cast<uint64_t>(SteadyNowNs() - origin_ns_) / 1000;
  payload[1] = ThisThreadFlightId() |
               (uint64_t{static_cast<uint8_t>(type)} << 32);
  payload[2] = static_cast<uint64_t>(a);
  payload[3] = static_cast<uint64_t>(b);
  char text[FlightEvent::kLabelBytes] = {};  // NUL-padded
  if (label != nullptr) {
    for (size_t i = 0; i < FlightEvent::kLabelBytes - 1 && label[i] != '\0';
         ++i) {
      // Labels land verbatim in hand-formatted JSON dumps: keep them
      // printable ASCII so the signal-safe writer needs no escaping.
      char c = label[i];
      text[i] = (c < 0x20 || c == '"' || c == '\\') ? '?' : c;
    }
  }
  std::memcpy(&payload[4], text, sizeof(text));

  Slot& slot = slots_[seq % capacity_];
  slot.seq.store(0, std::memory_order_relaxed);  // in progress
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t w = 0; w < kPayloadWords; ++w) {
    slot.words[w].store(payload[w], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 1, std::memory_order_release);  // publish
}

bool FlightRecorder::ReadSlot(uint64_t s, FlightEvent* out) const {
  const Slot& slot = slots_[s % capacity_];
  if (slot.seq.load(std::memory_order_acquire) != s + 1) return false;
  uint64_t payload[kPayloadWords];
  for (size_t w = 0; w < kPayloadWords; ++w) {
    payload[w] = slot.words[w].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != s + 1) return false;
  out->seq = s + 1;
  out->ts_us = payload[0];
  out->tid = static_cast<uint32_t>(payload[1]);
  out->type = static_cast<FlightEventType>(payload[1] >> 32);
  out->a = static_cast<int64_t>(payload[2]);
  out->b = static_cast<int64_t>(payload[3]);
  std::memcpy(out->label, &payload[4], sizeof(out->label));
  out->label[FlightEvent::kLabelBytes - 1] = '\0';
  return true;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t total = next_seq_.load(std::memory_order_relaxed);
  const uint64_t kept = total < capacity_ ? total : capacity_;
  std::vector<FlightEvent> out;
  out.reserve(kept);
  for (uint64_t s = total - kept; s < total; ++s) {
    FlightEvent e;
    if (ReadSlot(s, &e)) out.push_back(e);  // skip overwritten slots
  }
  return out;
}

void FlightRecorder::SetCapacity(size_t capacity) {
  HGMINE_CHECK(capacity > 0) << "flight recorder capacity must be >= 1";
  capacity_ = capacity;
  slots_ = std::make_unique<Slot[]>(capacity_);
  next_seq_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
    for (std::atomic<uint64_t>& w : slots_[i].words) {
      w.store(0, std::memory_order_relaxed);
    }
  }
  next_seq_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::WriteJson(std::ostream& os) const {
  std::vector<FlightEvent> events = Snapshot();
  const uint64_t total = total_recorded();
  const uint64_t dropped = total > events.size() ? total - events.size() : 0;
  os << "{\"flight_recorder\": {\"capacity\": " << capacity_
     << ", \"total\": " << total << ", \"dropped\": " << dropped
     << ", \"events\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    os << "  {\"seq\": " << e.seq << ", \"ts_us\": " << e.ts_us
       << ", \"tid\": " << e.tid << ", \"type\": \""
       << FlightEventTypeName(e.type) << "\", \"label\": \"" << e.label
       << "\", \"a\": " << e.a << ", \"b\": " << e.b << "}"
       << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "]}}\n";
}

void FlightRecorder::DumpToFd(int fd) const {
  // Mirrors WriteJson but uses only snprintf into stack buffers plus
  // write(2): safe from the SIGSEGV/SIGABRT handlers and the check hook.
  char buf[256];
  const uint64_t total = next_seq_.load(std::memory_order_relaxed);
  const uint64_t kept = total < capacity_ ? total : capacity_;
  std::snprintf(buf, sizeof(buf),
                "{\"flight_recorder\": {\"capacity\": %llu, \"total\": "
                "%llu, \"dropped\": %llu, \"events\": [\n",
                static_cast<unsigned long long>(capacity_),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(total - kept));
  WriteStr(fd, buf);
  bool first = true;
  for (uint64_t s = total - kept; s < total; ++s) {
    FlightEvent e;
    if (!ReadSlot(s, &e)) continue;  // overwritten or being written
    std::snprintf(buf, sizeof(buf),
                  "%s  {\"seq\": %llu, \"ts_us\": %llu, \"tid\": %u, "
                  "\"type\": \"%s\", \"label\": \"%s\", \"a\": %lld, "
                  "\"b\": %lld}",
                  first ? "" : ",\n", static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.ts_us), e.tid,
                  FlightEventTypeName(e.type), e.label,
                  static_cast<long long>(e.a), static_cast<long long>(e.b));
    WriteStr(fd, buf);
    first = false;
  }
  WriteStr(fd, "\n]}}\n");
}

bool FlightRecorder::DumpToFile(const char* path) const {
  int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpToFd(fd);
  ::close(fd);
  return true;
}

void FlightRecorder::SetDumpPath(const std::string& path) {
  size_t n = path.size() < sizeof(dump_path_) - 1 ? path.size()
                                                  : sizeof(dump_path_) - 1;
  std::memcpy(dump_path_, path.data(), n);
  dump_path_[n] = '\0';
}

bool FlightRecorder::DumpOnce(const char* why) {
  if (dump_path_[0] == '\0') return false;
  bool expected = false;
  if (!dumped_.compare_exchange_strong(expected, true,
                                       std::memory_order_relaxed)) {
    return false;  // a fatal path already dumped; keep its snapshot
  }
  if (why != nullptr) {
    // The reason rides in the ring itself, so the dump is self-describing.
    Record(FlightEventType::kMark, why);
  }
  return DumpToFile(dump_path_);
}

namespace {

void CrashSignalHandler(int sig) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Record(FlightEventType::kSignal,
            sig == SIGSEGV ? "SIGSEGV"
                           : (sig == SIGABRT ? "SIGABRT" : "signal"),
            sig);
  fr.DumpOnce(nullptr);
  // Restore the default action and re-raise so exit codes and cores are
  // exactly what they would have been without the black box.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void CheckFailureDump(const char* message) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Record(FlightEventType::kCheckFailure, message);
  fr.DumpOnce(nullptr);
}

}  // namespace

void InstallCrashHandlers() {
  hgm::internal::SetCheckFailureHook(&CheckFailureDump);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashSignalHandler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
}

void RecordBudgetTrip(const char* stop_reason, uint64_t queries) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.Record(FlightEventType::kBudgetTrip, stop_reason,
            static_cast<int64_t>(queries));
  if (fr.dump_on_trip()) fr.DumpOnce("budget_trip_dump");
}

}  // namespace obs
}  // namespace hgm
