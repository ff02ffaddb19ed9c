#include "obs/trace_ring.hpp"

#include <chrono>

#if SAIYAN_TRACING

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/seqlock.hpp"

namespace saiyan::obs {
namespace {

// Power of two so the writer's index wrap is a mask, not a modulo.
constexpr std::size_t kRingCapacity = 4096;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);

struct Ring {
  std::string name;              // guarded by Registry::mu
  std::uint32_t tid = 0;
  bool alive = true;             // guarded by Registry::mu
  // Monotonic count of events ever written; the slot for logical
  // index i is slots[i % capacity]. Written only by the owning
  // thread; read by snapshotters. head is the slots' sequence: each
  // slot is copied as relaxed atomic words (obs/seqlock.hpp), so a
  // snapshot that overlaps an overwrite is detected, never a race.
  std::atomic<std::uint64_t> head{0};
  std::array<SeqWords<TraceEvent>, kRingCapacity> slots{};
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;  // outlive their threads
  std::uint32_t next_tid = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_enabled{false};
// Bumped by reset_for_test so stale thread_local ring pointers from a
// previous registry generation are never dereferenced.
std::atomic<std::uint64_t> g_generation{0};

struct TlsSlot {
  Ring* ring = nullptr;
  std::uint64_t gen = 0;

  ~TlsSlot() {
    if (ring == nullptr) return;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    // Only touch the ring if it still belongs to the live generation;
    // after reset_for_test the pointer is dangling.
    if (gen == g_generation.load(std::memory_order_relaxed)) {
      ring->alive = false;
    }
  }
};

thread_local TlsSlot t_slot;

Ring& my_ring() {
  const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
  if (t_slot.ring != nullptr && t_slot.gen == gen) return *t_slot.ring;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto ring = std::make_unique<Ring>();
  ring->tid = reg.next_tid++;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "thread%u", ring->tid);
  ring->name = buf;
  t_slot.ring = ring.get();
  t_slot.gen = g_generation.load(std::memory_order_relaxed);
  reg.rings.push_back(std::move(ring));
  return *t_slot.ring;
}

void emit(const char* name, std::uint64_t ts_us, std::uint64_t dur_us,
          char phase) noexcept {
  Ring& r = my_ring();
  const std::uint64_t idx = r.head.load(std::memory_order_relaxed);
  TraceEvent e;
  e.name = name;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.phase = phase;
  // store_words' release fence orders the previous head store before
  // these words; publishing idx + 1 after them lets snapshotters
  // re-check head and discard anything we may have overwritten.
  store_words(r.slots[idx % kRingCapacity], e);
  r.head.store(idx + 1, std::memory_order_release);
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_event_json(std::string& out, std::uint32_t tid,
                       const TraceEvent& ev) {
  char buf[64];
  out += "{\"name\":\"";
  append_escaped(out, ev.name != nullptr ? ev.name : "?");
  out += "\",\"ph\":\"";
  out += ev.phase;
  out += '"';
  std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%u,\"ts\":%llu", tid,
                static_cast<unsigned long long>(ev.ts_us));
  out += buf;
  if (ev.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%llu",
                  static_cast<unsigned long long>(ev.dur_us));
    out += buf;
  } else if (ev.phase == 'i') {
    out += ",\"s\":\"t\"";  // thread-scoped instant
  }
  out += '}';
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t now_us() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void set_thread_name(const char* name) {
  // No-op while tracing is off: rings are immortal (they outlive their
  // threads), so registering one per worker of every short-lived
  // Gateway a test constructs would bloat the registry for nothing.
  // Threads that emit only after a later set_enabled(true) fall back
  // to the "thread<tid>" default name.
  if (!enabled()) return;
  Ring& r = my_ring();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  r.name = name;
}

void trace_instant(const char* name) noexcept {
  if (!enabled()) return;
  emit(name, now_us(), 0, 'i');
}

void trace_begin(const char* name) noexcept {
  if (!enabled()) return;
  emit(name, now_us(), 0, 'B');
}

void trace_end(const char* name) noexcept {
  if (!enabled()) return;
  emit(name, now_us(), 0, 'E');
}

void ScopedTimer::emit_complete_(const char* name, std::uint64_t ts_us,
                                 std::uint64_t dur_us) noexcept {
  emit(name, ts_us, dur_us, 'X');
}

std::vector<ThreadTrace> snapshot_all() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::vector<ThreadTrace> out;
  out.reserve(reg.rings.size());
  for (const auto& ring : reg.rings) {
    ThreadTrace tt;
    tt.thread_name = ring->name;
    tt.tid = ring->tid;
    tt.alive = ring->alive;

    // Seqlock copy with head as the sequence: read head, copy the live
    // window, read head again and discard any slot the writer may have
    // re-entered during the copy (logical index <= h2 - capacity
    // covers both completed and in-progress overwrites). load_words'
    // acquire fence orders each slot copy before the second head read.
    const std::uint64_t h1 = ring->head.load(std::memory_order_acquire);
    const std::uint64_t begin = h1 > kRingCapacity ? h1 - kRingCapacity : 0;
    std::vector<TraceEvent> copied;
    copied.reserve(static_cast<std::size_t>(h1 - begin));
    for (std::uint64_t i = begin; i < h1; ++i) {
      copied.push_back(load_words<TraceEvent>(ring->slots[i % kRingCapacity]));
    }
    const std::uint64_t h2 = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t min_valid =
        h2 + 1 > kRingCapacity ? h2 + 1 - kRingCapacity : 0;
    const std::uint64_t skip = min_valid > begin ? min_valid - begin : 0;
    if (skip < copied.size()) {
      tt.events.assign(copied.begin() + static_cast<std::ptrdiff_t>(skip),
                       copied.end());
    }
    // Everything ever emitted that this snapshot does not contain:
    // overwritten slots plus the conservatively-discarded window, so
    // dropped + events.size() always equals the emit count h2.
    tt.dropped = h2 - tt.events.size();
    out.push_back(std::move(tt));
  }
  return out;
}

std::uint64_t events_dropped_total() noexcept {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    if (h > kRingCapacity) total += h - kRingCapacity;
  }
  return total;
}

std::string chrome_trace_json(std::size_t max_bytes) {
  std::vector<ThreadTrace> threads = snapshot_all();

  // Shrink-to-fit loop: serialize, and if the dump is over budget keep
  // only the newest fraction of every thread's events and try again.
  // Metadata events always survive, so the result is valid JSON even
  // at tiny budgets.
  double keep = 1.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::string out;
    out += "{\"traceEvents\":[";
    out +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"saiyan-gateway\"}}";
    for (const ThreadTrace& tt : threads) {
      char buf[48];
      out += ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1";
      std::snprintf(buf, sizeof(buf), ",\"tid\":%u", tt.tid);
      out += buf;
      out += ",\"args\":{\"name\":\"";
      append_escaped(out, tt.thread_name.c_str());
      out += "\"}}";
      const std::size_t n = tt.events.size();
      const std::size_t take =
          keep >= 1.0 ? n
                      : static_cast<std::size_t>(
                            static_cast<double>(n) * keep);
      for (std::size_t i = n - take; i < n; ++i) {
        out += ',';
        append_event_json(out, tt.tid, tt.events[i]);
      }
    }
    out += "]}";
    if (max_bytes == 0 || out.size() <= max_bytes || keep == 0.0) {
      return out;
    }
    // Aim below the cap with some slack for the fixed overhead.
    keep *= 0.8 * static_cast<double>(max_bytes) /
            static_cast<double>(out.size());
    if (keep < 1e-6) keep = 0.0;
  }
  return "{\"traceEvents\":[]}";
}

void reset_for_test() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  reg.rings.clear();
  reg.next_tid = 0;
  g_generation.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace saiyan::obs

#else  // !SAIYAN_TRACING

namespace saiyan::obs {

std::uint64_t ScopedTimer::steady_now_us_() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

}  // namespace saiyan::obs

#endif  // SAIYAN_TRACING
