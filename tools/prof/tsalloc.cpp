// tsalloc — an allocation sampler loaded with LD_PRELOAD.
//
//   LD_PRELOAD=build/tools/prof/libtsalloc.so ./build/examples/toposense_sim
//   python3 tools/prof/report.py tsalloc.out
//
// It interposes the C allocation entry points (malloc, calloc, realloc and
// the aligned ones), which also serve operator new, and forwards each call to
// glibc's own __libc_* implementation. Every call is counted, with its
// bytes. One call in kPeriod on average also records its call stack with
// backtrace(3) into a fixed table keyed by the stack, which sums the sampled
// calls and their bytes per distinct stack. A sampled stack's count times
// kPeriod estimates the calls made there. The gap to the next sample is
// drawn uniformly from 1 to 2 * kPeriod - 1 (a fixed-seed xorshift per
// thread), so a loop whose allocations repeat with the period does not have
// the same one of them sampled every time.
//
// At exit it writes tsalloc.out in the working directory: a header with the
// main executable, its load base, the period and the exact totals, then one
// `stack COUNT BYTES` line per recorded stack followed by its frames,
// innermost first. A frame in the main executable is written as an offset
// from the load base, for report.py to symbolize with addr2line; a frame in a
// shared library is named here with dladdr. The sampler's own frames are left
// out.
//
// A sanitizer runtime must be loaded first and owns malloc, so this cannot
// run under a sanitized binary.
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
void* __libc_memalign(std::size_t alignment, std::size_t size);
}

namespace {

constexpr unsigned kPeriod = 16;
constexpr int kMaxDepth = 32;
constexpr std::size_t kTableSize = std::size_t{1} << 14;  // power of two

struct StackEntry {
  std::uint64_t hash;  ///< 0 marks a free entry
  int depth;
  void* frames[kMaxDepth];
  std::uint64_t count;
  std::uint64_t bytes;
};

StackEntry g_table[kTableSize];
std::atomic_flag g_table_lock = ATOMIC_FLAG_INIT;
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_sampled{0};
std::atomic<std::uint64_t> g_dropped{0};  ///< sampled stacks the full table refused
std::atomic<bool> g_ready{false};         ///< backtrace warmed up; cleared at exit

// Initial-exec TLS: the library is loaded at startup, so its thread-locals
// sit in the static TLS block and reading them never allocates.
__attribute__((tls_model("initial-exec"))) thread_local unsigned t_countdown = kPeriod;
__attribute__((tls_model("initial-exec"))) thread_local std::uint32_t t_xorshift = 2463534242U;
__attribute__((tls_model("initial-exec"))) thread_local bool t_inside = false;

/// Calls until the next sample: uniform on [1, 2 * kPeriod - 1], mean kPeriod.
unsigned next_gap() {
  t_xorshift ^= t_xorshift << 13;
  t_xorshift ^= t_xorshift >> 17;
  t_xorshift ^= t_xorshift << 5;
  return 1 + t_xorshift % (2 * kPeriod - 1);
}

std::uint64_t hash_frames(void* const* frames, int depth) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the addresses
  for (int i = 0; i < depth; ++i) {
    h ^= reinterpret_cast<std::uintptr_t>(frames[i]);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

void record(std::size_t size) {
  void* frames[kMaxDepth];
  const int depth = backtrace(frames, kMaxDepth);
  const std::uint64_t hash = hash_frames(frames, depth);
  g_sampled.fetch_add(1, std::memory_order_relaxed);
  while (g_table_lock.test_and_set(std::memory_order_acquire)) {
  }
  for (std::size_t probe = 0; probe < kTableSize; ++probe) {
    StackEntry& entry = g_table[(hash + probe) & (kTableSize - 1)];
    if (entry.hash == 0) {
      entry.hash = hash;
      entry.depth = depth;
      std::copy(frames, frames + depth, entry.frames);
    } else if (entry.hash != hash || entry.depth != depth ||
               !std::equal(frames, frames + depth, entry.frames)) {
      continue;
    }
    ++entry.count;
    entry.bytes += size;
    g_table_lock.clear(std::memory_order_release);
    return;
  }
  g_table_lock.clear(std::memory_order_release);
  g_dropped.fetch_add(1, std::memory_order_relaxed);
}

/// Counts one allocation call and samples it when the thread's countdown
/// runs out. Calls made while recording (backtrace's own) are not counted.
void note(std::size_t size) {
  if (t_inside) return;
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (--t_countdown != 0) return;
  t_countdown = next_gap();
  if (!g_ready.load(std::memory_order_relaxed)) return;
  t_inside = true;
  record(size);
  t_inside = false;
}

/// Where the main executable is mapped: the first object dl_iterate_phdr
/// reports, from its load base to the end of its last PT_LOAD segment.
struct MainObject {
  std::uintptr_t base{0};
  std::uintptr_t end{0};
};

int describe_main(dl_phdr_info* info, std::size_t, void* data) {
  auto* main = static_cast<MainObject*>(data);
  main->base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& segment = info->dlpi_phdr[i];
    if (segment.p_type != PT_LOAD) continue;
    main->end = std::max<std::uintptr_t>(main->end,
                                         info->dlpi_addr + segment.p_vaddr + segment.p_memsz);
  }
  return 1;  // stop after the first object
}

void write_frame(std::FILE* out, std::uintptr_t ip, const MainObject& main) {
  if (ip >= main.base && ip < main.end) {
    std::fprintf(out, "exe %#lx\n", static_cast<unsigned long>(ip - main.base));
    return;
  }
  Dl_info info{};
  const char* module = "?";
  const char* symbol = "?";
  char* demangled = nullptr;
  if (dladdr(reinterpret_cast<void*>(ip), &info) != 0) {
    if (info.dli_fname != nullptr) module = info.dli_fname;
    if (info.dli_sname != nullptr) {
      int status = 0;
      demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      symbol = status == 0 ? demangled : info.dli_sname;
    }
  }
  std::fprintf(out, "lib %s %s\n", module, symbol);
  std::free(demangled);
}

__attribute__((constructor)) void start_sampling() {
  // backtrace() loads the unwinder on its first call, which allocates; do it
  // here rather than inside an interposed malloc.
  void* frames[2];
  t_inside = true;
  backtrace(frames, 2);
  t_inside = false;
  g_ready.store(true);
}

__attribute__((destructor)) void write_samples() {
  g_ready.store(false);
  t_inside = true;  // what this writer allocates is not the program's
  while (g_table_lock.test_and_set(std::memory_order_acquire)) {
  }
  MainObject main;
  dl_iterate_phdr(describe_main, &main);
  Dl_info self{};
  dladdr(reinterpret_cast<void*>(&write_samples), &self);
  char exe[4096] = {};
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len > 0) exe[len] = '\0';

  std::FILE* out = std::fopen("tsalloc.out", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "# tsalloc 1\nexe %s\nbase %#lx\nperiod %u\nallocations %lu\nbytes %lu\n"
                 "sampled %lu\ndropped %lu\n",
                 exe, static_cast<unsigned long>(main.base), kPeriod,
                 static_cast<unsigned long>(g_calls.load()),
                 static_cast<unsigned long>(g_bytes.load()),
                 static_cast<unsigned long>(g_sampled.load()),
                 static_cast<unsigned long>(g_dropped.load()));
    for (const StackEntry& entry : g_table) {
      if (entry.hash == 0) continue;
      std::fprintf(out, "stack %lu %lu\n", static_cast<unsigned long>(entry.count),
                   static_cast<unsigned long>(entry.bytes));
      for (int i = 0; i < entry.depth; ++i) {
        // A return address points past its call; step back into the call.
        const auto ip = reinterpret_cast<std::uintptr_t>(entry.frames[i]) - 1;
        Dl_info info{};
        if (dladdr(reinterpret_cast<void*>(ip), &info) != 0 &&
            info.dli_fbase == self.dli_fbase) {
          continue;  // the sampler itself
        }
        write_frame(out, ip, main);
      }
    }
    std::fclose(out);
  }
  g_table_lock.clear(std::memory_order_release);
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) {
  note(size);
  return __libc_malloc(size);
}

void* calloc(std::size_t count, std::size_t size) {
  note(count * size);
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, std::size_t size) {
  note(size);
  return __libc_realloc(ptr, size);
}

void* memalign(std::size_t alignment, std::size_t size) {
  note(size);
  return __libc_memalign(alignment, size);
}

void* aligned_alloc(std::size_t alignment, std::size_t size) {
  note(size);
  return __libc_memalign(alignment, size);
}

int posix_memalign(void** out, std::size_t alignment, std::size_t size) {
  if (alignment == 0 || alignment % sizeof(void*) != 0 || (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  note(size);
  void* p = __libc_memalign(alignment, size);
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

}  // extern "C"
