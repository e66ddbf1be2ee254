// Single-writer seqlock: publishes a composite stats block to
// concurrent readers without making the writer wait. A plain struct
// copy under the sequence counter would be a data race (Boehm, "Can
// Seqlocks Get Along with Programming Language Memory Models?",
// MSPC '12), so the payload lives in 64-bit words, each stored and
// loaded through a relaxed std::atomic_ref (a plain move on x86-64).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace saiyan::obs {

template <typename T>
class Seqlock {
  static_assert(std::is_trivially_copyable_v<T>);
  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;
  using Words = std::array<std::uint64_t, kWords>;

 public:
  Seqlock() { publish(T{}); }

  /// Writer side: one thread, or writers serialized by their own lock.
  void publish(const T& value) {
    Words src{};
    std::memcpy(src.data(), static_cast<const void*>(&value), sizeof(T));
    seq_.fetch_add(1, std::memory_order_relaxed);  // odd: in flux
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i) {
      std::atomic_ref<std::uint64_t>(words_[i]).store(
          src[i], std::memory_order_relaxed);
    }
    seq_.fetch_add(1, std::memory_order_release);  // even: stable
  }

  /// Reader side, any thread: retries until a stable copy is read.
  T read() const {
    Words copy;
    for (;;) {
      const std::uint32_t before = seq_.load(std::memory_order_acquire);
      if (before & 1u) continue;
      for (std::size_t i = 0; i < kWords; ++i) {
        copy[i] = std::atomic_ref<std::uint64_t>(words_[i]).load(
            std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == before) break;
    }
    T out;
    std::memcpy(static_cast<void*>(&out), copy.data(), sizeof(T));
    return out;
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
  alignas(std::atomic_ref<std::uint64_t>::required_alignment)
      mutable Words words_{};
};

}  // namespace saiyan::obs
