// tsprof — a wall-clock sampling profiler loaded with LD_PRELOAD.
//
//   TSPROF_OUT=prof.txt LD_PRELOAD=build/tools/prof/libtsprof.so ./build/examples/toposense_sim
//   python3 tools/prof/report.py prof.txt
//
// On load it arms ITIMER_REAL with a fixed 200 us period. Each SIGALRM
// records the interrupted instruction pointer from the signal's ucontext into
// a fixed buffer; nothing else runs in the handler. ITIMER_REAL counts
// wall-clock time, so samples keep arriving where ITIMER_PROF (what gprof
// uses) is throttled by the VM's scheduler, and the instruction pointer
// attributes each sample to the function that was actually running, with no
// call-graph folding.
//
// Only the thread that receives the signal is sampled. ITIMER_REAL raises a
// process-directed SIGALRM, which Linux hands to the main thread while it
// does not block the signal, so time spent on other threads (sim::WorkerPool
// workers, for one) is not seen, and the main thread's samples include the
// time it waits for them.
//
// At exit it writes TSPROF_OUT (default tsprof.out): a header naming the main
// executable and its load base, then one line per distinct address with its
// sample count. Addresses in the main executable are written as offsets from
// the load base (found with dl_iterate_phdr, so PIE binaries work) for
// report.py to symbolize with addr2line; addresses in shared libraries are
// named here with dladdr.
#include <cxxabi.h>
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

constexpr long kPeriodUs = 200;
constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // ~3.5 min at kPeriodUs

std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};

void on_alarm(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto ip = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto ip = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  const std::uintptr_t ip = 0;
  (void)uc;
#endif
  const std::size_t slot = g_count.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    g_samples[slot] = ip;
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
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

__attribute__((constructor)) void start_sampling() {
  struct sigaction action {};
  action.sa_sigaction = on_alarm;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_REAL, &timer, nullptr);
}

__attribute__((destructor)) void write_profile() {
  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  const std::size_t taken = std::min(g_count.load(), kMaxSamples);
  std::vector<std::uintptr_t> samples(g_samples, g_samples + taken);
  std::sort(samples.begin(), samples.end());

  MainObject main;
  dl_iterate_phdr(describe_main, &main);
  char exe[4096] = {};
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len > 0) exe[len] = '\0';

  const char* path = std::getenv("TSPROF_OUT");
  std::FILE* out = std::fopen(path != nullptr ? path : "tsprof.out", "w");
  if (out == nullptr) return;
  std::fprintf(out, "# tsprof 1\nexe %s\nbase %#lx\nsamples %zu\ndropped %zu\n", exe,
               static_cast<unsigned long>(main.base), taken, g_dropped.load());
  for (std::size_t i = 0; i < samples.size();) {
    std::size_t j = i;
    while (j < samples.size() && samples[j] == samples[i]) ++j;
    const std::uintptr_t ip = samples[i];
    const auto count = static_cast<unsigned long>(j - i);
    if (ip >= main.base && ip < main.end) {
      std::fprintf(out, "%lu exe %#lx\n", count, static_cast<unsigned long>(ip - main.base));
    } else {
      Dl_info info{};
      const char* symbol = "?";
      char* demangled = nullptr;
      const char* module = "?";
      if (dladdr(reinterpret_cast<void*>(ip), &info) != 0) {
        if (info.dli_fname != nullptr) module = info.dli_fname;
        if (info.dli_sname != nullptr) {
          int status = 0;
          demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
          symbol = status == 0 ? demangled : info.dli_sname;
        }
      }
      std::fprintf(out, "%lu lib %s %s\n", count, module, symbol);
      std::free(demangled);
    }
    i = j;
  }
  std::fclose(out);
}

}  // namespace
