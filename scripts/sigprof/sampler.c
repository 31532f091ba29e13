// A SIGPROF sampling profiler, loaded into a program with LD_PRELOAD
// (docs/PROFILING.md). When SIGPROF_OUT names a file prefix, it arms
// ITIMER_PROF for the process it is loaded into: every millisecond of
// CPU time that process uses, the kernel sends it SIGPROF, and the
// handler records the interrupted instruction pointer. At exit the
// samples and the process's memory map go to <SIGPROF_OUT>.<pid>;
// scripts/sigprof/report.py turns them into self time per symbol.
//
// It reads no counter that needs privileges and changes no system
// setting: the timer and the signal belong to this process alone.

#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 20, kIntervalUs = 1000 };

static void* samples[kMaxSamples];
static unsigned long taken;  // may exceed kMaxSamples; the rest are lost
static int armed;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  void* ip = (void*)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  void* ip = (void*)uc->uc_mcontext.pc;
#else
#error "sampler.c reads the instruction pointer on x86-64 and AArch64 only"
#endif
  const unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < kMaxSamples) samples[i] = ip;
}

__attribute__((constructor)) static void sigprof_start(void) {
  if (getenv("SIGPROF_OUT") == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    perror("sigprof: sigaction");
    return;
  }
  const struct itimerval every = {{0, kIntervalUs}, {0, kIntervalUs}};
  if (setitimer(ITIMER_PROF, &every, NULL) != 0) {
    perror("sigprof: setitimer");
    return;
  }
  armed = 1;
}

__attribute__((destructor)) static void sigprof_stop(void) {
  if (!armed) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[4096];
  snprintf(path, sizeof path, "%s.%ld", getenv("SIGPROF_OUT"),
           (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sigprof: fopen");
    return;
  }
  const unsigned long n = taken < kMaxSamples ? taken : kMaxSamples;
  fprintf(out, "# sigprof interval_us %d samples %lu lost %lu\n", kIntervalUs,
          n, taken - n);
  for (unsigned long i = 0; i < n; ++i) fprintf(out, "%p\n", samples[i]);
  fputs("# maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fclose(out);
  fprintf(stderr, "sigprof: %lu samples in %s\n", n, path);
}
