/* sampler.c — an LD_PRELOAD CPU sampler for ftbench, the tests and benches.
 *
 * Build and run (see tools/prof/README.md):
 *
 *   cc -shared -fPIC -O2 -o libftmr_prof.so tools/prof/sampler.c
 *   FTMR_PROF_OUT=/tmp/prof/run LD_PRELOAD=$PWD/libftmr_prof.so ./ftbench ...
 *   python3 tools/prof/symbolize.py /tmp/prof/run.* > run.folded
 *
 * A SIGPROF timer (ITIMER_PROF: process CPU time) interrupts whichever
 * thread is running; the handler stores that thread's backtrace() into a
 * static array, claiming its slot with one atomic add, so it neither
 * allocates nor locks. backtrace() is called once before the timer is
 * armed: its first call loads the unwinder, which must not happen inside a
 * signal handler.
 *
 * Interval timers are not inherited across fork(), and ftbench runs every
 * job in a forked child, so a pthread_atfork() child handler clears the
 * inherited samples and re-arms the timer. Children leave through _exit(),
 * which skips atexit handlers, so _exit is interposed as well as a library
 * destructor: either writes <FTMR_PROF_OUT>.<pid>.stacks (one sample per
 * line, "n addr... ", hex, leaf first) and <FTMR_PROF_OUT>.<pid>.maps (a
 * copy of /proc/self/maps, which the symbolizer needs to map addresses
 * back to their binaries).
 *
 * FTMR_PROF_OUT unset: the library does nothing. The timer interval is a
 * fixed 1000 us; the kernel delivers it no more often than its tick, so a
 * shorter one would not help (see the README).
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>

#include "dump.h"

enum { kDepth = 64, kSamples = 1 << 15, kIntervalUs = 1000 };

struct Sample {
  int depth;
  void* pc[kDepth];
};

static struct Sample samples[kSamples];
static atomic_int taken;    /* slots claimed, may run past kSamples */
static atomic_int dumped;   /* set once this process has written its dump */

static void on_prof(int sig) {
  (void)sig;
  const int saved = errno;
  const int at = atomic_fetch_add_explicit(&taken, 1, memory_order_relaxed);
  if (at < kSamples) samples[at].depth = backtrace(samples[at].pc, kDepth);
  errno = saved;
}

/* ---- dump (outside signal context, but in a process about to exit) ---- */

static void dump(void) {
  if (out_prefix[0] == '\0' || atomic_exchange(&dumped, 1)) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  int count = atomic_load(&taken);
  if (count > kSamples) count = kSamples;

  const int fd = open_dump(".stacks");
  if (fd < 0) return;
  char line[kDepth * 18 + 32];
  for (int i = 0; i < count; ++i) {
    char* at = hex(line, (unsigned long)samples[i].depth);
    for (int d = 0; d < samples[i].depth; ++d) {
      *at++ = ' ';
      at = hex(at, (unsigned long)samples[i].pc[d]);
    }
    *at++ = '\n';
    put(fd, line, (size_t)(at - line));
  }
  close(fd);
  write_maps();
}

/* ---- arming ---- */

static void arm(void) {
  const struct timeval every = {0, kIntervalUs};
  const struct itimerval on = {every, every};
  setitimer(ITIMER_PROF, &on, NULL);
}

static void in_child(void) {
  atomic_store(&taken, 0);
  atomic_store(&dumped, 0);
  arm();
}

__attribute__((constructor)) static void start(void) {
  if (!read_out_prefix(getenv("FTMR_PROF_OUT"))) return;
  void* warm[4];
  (void)backtrace(warm, 4); /* loads the unwinder outside the handler */
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  pthread_atfork(NULL, NULL, in_child);
  arm();
}

__attribute__((destructor)) static void stop(void) { dump(); }

/* Forked children exit here, past every atexit handler. */
void _exit(int status) {
  dump();
  syscall(SYS_exit_group, status);
  __builtin_unreachable();
}
