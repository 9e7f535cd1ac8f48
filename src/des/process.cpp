#include "des/process.hpp"

#include <cstdint>
#include <new>

namespace pimsim::des {

namespace {

constexpr std::size_t kClasses = FramePool::kMaxBlock / FramePool::kGranule;

struct FreeBlock {
  FreeBlock* next;
};

/// One thread's free lists.  Trivially destructible and constant-
/// initialized, so the hot path reads it without a TLS init guard and it
/// stays readable after ThreadReaper has drained it (blocks freed during
/// thread or process shutdown then bypass the pool).
struct ThreadPool {
  FreeBlock* heads[kClasses];
  std::size_t retained;
  bool armed;   // ThreadReaper registered for this thread
  bool closed;  // the thread is exiting: no more retention
};

// lint:allow(mutable-static): per-thread, so never shared; it decides only which block a frame gets, never model state
constinit thread_local ThreadPool tls_pool{};

/// Frees the thread's blocks, smallest class first, until its lists hold
/// at most `keep` bytes.  What stays is then the fewest, largest blocks,
/// so the fewest scattered blocks keep the allocator from reusing or
/// coalescing the memory around them (freeing the largest first raised a
/// repeated fig12 run's peak RSS by about 0.2 MB).
void release_down_to(ThreadPool& pool, std::size_t keep) noexcept {
  for (std::size_t c = 0; c < kClasses && pool.retained > keep; ++c) {
    const std::size_t bytes = (c + 1) * FramePool::kGranule;
    while (pool.heads[c] != nullptr && pool.retained > keep) {
      FreeBlock* b = pool.heads[c];
      pool.heads[c] = b->next;
      pool.retained -= bytes;
      ::operator delete(b, bytes);
    }
  }
}

/// Returns a thread's retained blocks to operator delete at thread exit
/// (so pooled memory never outlives its thread or shows up as a leak).
struct ThreadReaper {
  ~ThreadReaper() {
    tls_pool.closed = true;
    release_down_to(tls_pool, 0);
  }
};

void arm_reaper(ThreadPool& pool) {
  // lint:allow(mutable-static): per-thread exit hook; holds no data
  thread_local ThreadReaper reaper;
  (void)reaper;
  pool.armed = true;
}

/// Size class of a block of `size` bytes, or kClasses when unpooled.
std::size_t size_class(std::size_t size) {
  return size == 0 || size > FramePool::kMaxBlock
             ? kClasses
             : (size - 1) / FramePool::kGranule;
}

}  // namespace

void* FramePool::allocate(std::size_t size) {
  const std::size_t c = size_class(size);
  if (c == kClasses) return ::operator new(size);
  ThreadPool& pool = tls_pool;
  if (FreeBlock* b = pool.heads[c]; b != nullptr) {
    pool.heads[c] = b->next;
    pool.retained -= (c + 1) * kGranule;
    return b;
  }
  return ::operator new((c + 1) * kGranule);
}

void FramePool::deallocate(void* block, std::size_t size) noexcept {
  const std::size_t c = size_class(size);
  if (c == kClasses) {
    ::operator delete(block, size);
    return;
  }
  const std::size_t bytes = (c + 1) * kGranule;
  ThreadPool& pool = tls_pool;
  if (pool.closed || pool.retained + bytes > kMaxRetainedBytes) {
    ::operator delete(block, bytes);
    return;
  }
  if (!pool.armed) arm_reaper(pool);
  auto* b = static_cast<FreeBlock*>(block);
  b->next = pool.heads[c];
  pool.heads[c] = b;
  pool.retained += bytes;
}

void FramePool::trim() noexcept { release_down_to(tls_pool, kTrimmedBytes); }

std::size_t FramePool::retained_bytes() noexcept { return tls_pool.retained; }

}  // namespace pimsim::des
