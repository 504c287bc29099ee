// Process-wide counters that need no hook inside the program: a replaced
// global operator new and delete (every allocation the libraries make goes
// through them; they count calls and, when asked, the bytes live at once)
// and an interposed pthread_create (every std::thread / std::jthread
// the libraries start goes through it).
#include <dlfcn.h>
#include <malloc.h>
#include <pthread.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

// Allocations are counted per thread, without atomics: a shared counter
// bounces one cache line between the similarity workers on every
// allocation. A thread's count joins g_exited_allocations when it ends.
thread_local std::uint64_t t_allocations = 0;
std::atomic<std::uint64_t> g_exited_allocations{0};
// Heap bytes are counted only between start_heap_peak() and
// stop_heap_peak(): two atomic updates per allocation slow CAPMAN's
// allocation-heavy fleet by 40%, so the timed passes leave them off.
alignas(64) std::atomic<bool> g_count_bytes{false};
alignas(64) std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};
std::atomic<std::uint64_t> g_threads_created{0};
std::atomic<std::uint64_t> g_live_threads{1};  // the main thread
std::atomic<std::uint64_t> g_peak_live_threads{1};
const perfbench::Clock::time_point g_start = perfbench::Clock::now();

template <class T>
void raise_peak(std::atomic<T>& peak, T value) {
  T seen = peak.load(std::memory_order_relaxed);
  while (value > seen && !peak.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

void* counted(void* p) {
  if (p != nullptr) {
    ++t_allocations;
    if (g_count_bytes.load(std::memory_order_relaxed)) {
      const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
      raise_peak(g_peak_live_bytes,
                 g_live_bytes.fetch_add(size, std::memory_order_relaxed) +
                     size);
    }
  }
  return p;
}

void* counted_alloc(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  return counted(std::aligned_alloc(alignment, rounded));
}

void counted_free(void* p) noexcept {
  if (p != nullptr && g_count_bytes.load(std::memory_order_relaxed)) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

struct StartArgs {
  void* (*routine)(void*);
  void* arg;
};

struct LiveThread {
  LiveThread() {
    raise_peak(g_peak_live_threads,
               g_live_threads.fetch_add(1, std::memory_order_relaxed) +
                   std::uint64_t{1});
  }
  ~LiveThread() {
    g_exited_allocations.fetch_add(t_allocations, std::memory_order_relaxed);
    g_live_threads.fetch_sub(1, std::memory_order_relaxed);
  }
  LiveThread(const LiveThread&) = delete;
  LiveThread& operator=(const LiveThread&) = delete;
};

void* counted_start(void* raw) {
  const StartArgs args = *static_cast<StartArgs*>(raw);
  std::free(raw);
  const LiveThread live;
  return args.routine(args.arg);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

// Interposes the C library's pthread_create: the executable's definition
// wins symbol lookup for libstdc++'s std::thread as well.
extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*routine)(void*), void* arg) {
  using Real = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                       void*);
  static const Real real =
      reinterpret_cast<Real>(dlsym(RTLD_NEXT, "pthread_create"));
  if (real == nullptr) std::abort();
  auto* args = static_cast<StartArgs*>(std::malloc(sizeof(StartArgs)));
  if (args == nullptr) return EAGAIN;
  *args = {routine, arg};
  const int rc = real(thread, attr, counted_start, args);
  if (rc == 0) {
    g_threads_created.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::free(args);
  }
  return rc;
}

namespace perfbench {

std::uint64_t allocations() {
  return g_exited_allocations.load(std::memory_order_relaxed) + t_allocations;
}
void start_heap_peak() {
  g_live_bytes.store(0, std::memory_order_relaxed);
  g_peak_live_bytes.store(0, std::memory_order_relaxed);
  g_count_bytes.store(true, std::memory_order_relaxed);
}
std::uint64_t stop_heap_peak() {
  g_count_bytes.store(false, std::memory_order_relaxed);
  return static_cast<std::uint64_t>(
      g_peak_live_bytes.load(std::memory_order_relaxed));
}
std::uint64_t threads_created() {
  return g_threads_created.load(std::memory_order_relaxed);
}
std::uint64_t peak_live_threads() {
  return g_peak_live_threads.load(std::memory_order_relaxed);
}
Clock::time_point process_start() { return g_start; }

}  // namespace perfbench
