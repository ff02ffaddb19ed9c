// Single-writer seqlock: publishes a plain struct to concurrent
// readers without ever making the writer wait.
//
// MDS2's lesson (PAPERS.md) is that a statistics query must cost the
// serving path nothing, so the gateway's worker stats, the link
// telescope's per-link windows and the flight recorder's ring slots
// are all read while their writer keeps going. The writer bumps a
// sequence to odd, rewrites the payload, and bumps it back to even; a
// reader copies the payload between two loads of an even, unchanged
// sequence and retries otherwise.
//
// The payload lives in relaxed atomic 64-bit words, not in a plain
// `T`: a reader that overlaps a write reads words that are each whole
// but may mix two versions, and the sequence check then throws that
// copy away. With a plain `T` the overlapping copy would be a data race
// (undefined behaviour under the C++ memory model, and a TSan report)
// even though x86 happens to hide it. The fences are the classic
// seqlock pairing (Boehm, "Can seqlocks get along with programming
// language memory models?"): the writer's release fence orders the odd
// sequence before the payload words, the reader's acquire fence orders
// the payload words before its sequence re-check. So a reader that saw
// any word of a newer write also sees the sequence move, and every copy
// load() returns is one value that store() published.
//
// store_words() / load_words() are that fenced word copy on its own,
// for a structure that already has its own counter (the trace ring's
// head index plays the sequence there).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace saiyan::obs {

/// 64-bit words needed to hold one `T`.
template <typename T>
inline constexpr std::size_t kSeqWordCount = (sizeof(T) + 7) / 8;

/// Relaxed atomic 64-bit words large enough to hold one `T`.
template <typename T>
using SeqWords = std::array<std::atomic<std::uint64_t>, kSeqWordCount<T>>;

/// Writer side of the word copy: a release fence, then `value` as
/// relaxed word stores. A reader whose load_words() sees any of these
/// words also sees every store the writer made before this call.
template <typename T>
void store_words(SeqWords<T>& words, const T& value) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  std::array<std::uint64_t, kSeqWordCount<T>> raw{};
  std::memcpy(raw.data(), &value, sizeof(T));
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    words[i].store(raw[i], std::memory_order_relaxed);
  }
}

/// Reader side: relaxed word loads, then an acquire fence, so loads
/// after this call see at least what the writer had stored before the
/// store_words() whose words were read. The copy may mix two writes;
/// the caller's counter check decides whether to keep it.
template <typename T>
T load_words(const SeqWords<T>& words) noexcept {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_default_constructible_v<T>);
  std::array<std::uint64_t, kSeqWordCount<T>> raw;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  T value;
  // Trivially copyable (asserted above), so the bytes are the value.
  std::memcpy(static_cast<void*>(&value), raw.data(), sizeof(T));
  return value;
}

/// One writer (callers serialise their writers), any number of
/// readers. Readers never block the writer; they retry while a store
/// is in flight.
template <typename T>
class Seqlock {
 public:
  Seqlock() noexcept { store_words(words_, T{}); }

  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  /// Writer side: publish a new value.
  void store(const T& value) noexcept {
    const std::uint32_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);  // odd: in flux
    store_words(words_, value);
    seq_.store(s + 2, std::memory_order_release);  // even: stable
  }

  /// Reader side: the latest published value, never a mix of two.
  T load() const noexcept {
    for (;;) {
      const std::uint32_t before = seq_.load(std::memory_order_acquire);
      if ((before & 1u) == 0) {
        const T copy = load_words<T>(words_);
        if (seq_.load(std::memory_order_relaxed) == before) return copy;
      }
      pause_();
    }
  }

 private:
  static void pause_() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<std::uint32_t> seq_{0};
  SeqWords<T> words_{};
};

}  // namespace saiyan::obs
