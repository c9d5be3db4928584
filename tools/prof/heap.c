/* heap.c — an LD_PRELOAD heap-peak profiler for ftbench, the tests and benches.
 *
 * Build and run (see tools/prof/README.md):
 *
 *   cc -shared -fPIC -O2 -o libftmr_prof_heap.so tools/prof/heap.c
 *   FTMR_PROF_OUT=/tmp/heap/run LD_PRELOAD=$PWD/libftmr_prof_heap.so ./ftbench ...
 *   python3 tools/prof/symbolize.py /tmp/heap/run.<pid>.heap > peak.folded
 *
 * Every malloc, calloc, realloc and aligned allocation is charged, with its
 * size, to the stack that made it (backtrace(), leaf first); free() and
 * realloc() take the bytes back from that stack. So each stack holds its
 * live bytes, and their sum is the process's live heap. Whenever the live
 * heap has risen to a new high-water mark, the first free after it copies
 * every stack's live bytes into a snapshot, the heap at its peak. A
 * snapshot is taken only once the peak has grown by 1/128 since the last
 * one, which bounds the copying; the snapshot written is then within 1/128
 * of the true peak, and the dump's header gives both.
 *
 * The real allocator is glibc's (__libc_malloc and friends), so no dlsym()
 * bootstrap is needed. An allocation made while the hook itself runs (the
 * unwinder's first call loads libgcc_s) passes through untracked, as does
 * one made before the constructor ran; freeing such a block finds no
 * record and changes nothing. ftbench runs every job in a forked child:
 * a pthread_atfork() child handler keeps the inherited live bytes (they are
 * in the child's heap) but restarts the peak from them, so each process
 * reports its own high-water mark. Children leave through _exit(), so
 * _exit is interposed as well as a library destructor: either writes
 * <FTMR_PROF_OUT>.<pid>.heap — a "# peak <bytes> snapshot <bytes>" line,
 * then one line per stack, "<bytes> addr... " (bytes in decimal, addresses
 * in hex, leaf first) — and <FTMR_PROF_OUT>.<pid>.maps.
 *
 * FTMR_PROF_OUT unset: every call goes straight to glibc.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <sys/syscall.h>

#include "dump.h"

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void* __libc_memalign(size_t align, size_t size);
extern void __libc_free(void* p);

enum { kDepth = 48, kPeakStepShift = 7 };

/* One allocation stack: its frames, its live bytes now and at the peak. */
struct Stack {
  uint64_t hash;
  int depth;
  void* pc[kDepth];
  size_t live;
  size_t at_peak;
};

/* One live block: its address, size and stack (index into stacks). */
struct Block {
  uintptr_t addr; /* 0: empty slot */
  size_t size;
  uint32_t stack;
};

static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
static int enabled;
static int dumped;
static __thread int busy __attribute__((tls_model("initial-exec")));

static struct Stack* stacks;  /* mmap'ed, grown by doubling */
static size_t nstacks, stack_cap;
static uint32_t* stack_index; /* open addressing: stack number + 1, 0 empty */
static size_t index_cap;
static struct Block* blocks;  /* open addressing by address, linear probing */
static size_t nblocks, block_cap;

static size_t live, peak, snap; /* bytes: live now, the high-water mark, the snapshot's */
static int rising;              /* a new peak was reached and not yet snapshotted */

static void* grab(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

/* ---- the stack table (under mu) ---- */

static void index_insert(uint32_t id) {
  size_t at = stacks[id].hash & (index_cap - 1);
  while (stack_index[at] != 0) at = (at + 1) & (index_cap - 1);
  stack_index[at] = id + 1;
}

static int grow_stacks(void) {
  const size_t cap = stack_cap ? stack_cap * 2 : 1024;
  struct Stack* s = grab(cap * sizeof *s);
  uint32_t* idx = grab(cap * 2 * sizeof *idx);
  if (s == NULL || idx == NULL) return 0;
  if (stacks != NULL) {
    memcpy(s, stacks, nstacks * sizeof *s);
    munmap(stacks, stack_cap * sizeof *stacks);
    munmap(stack_index, index_cap * sizeof *stack_index);
  }
  stacks = s;
  stack_cap = cap;
  stack_index = idx;
  index_cap = cap * 2;
  for (size_t i = 0; i < nstacks; ++i) index_insert((uint32_t)i);
  return 1;
}

/* The stack number of (pc, depth), added if new; -1 when out of memory. */
static long find_stack(void* const* pc, int depth) {
  uint64_t h = (uint64_t)depth;
  for (int i = 0; i < depth; ++i) h = mix(h ^ (uint64_t)(uintptr_t)pc[i]);
  if (stack_cap != 0) {
    for (size_t at = h & (index_cap - 1); stack_index[at] != 0;
         at = (at + 1) & (index_cap - 1)) {
      const struct Stack* s = &stacks[stack_index[at] - 1];
      if (s->hash == h && s->depth == depth &&
          memcmp(s->pc, pc, (size_t)depth * sizeof *pc) == 0) {
        return (long)(stack_index[at] - 1);
      }
    }
  }
  if (nstacks == stack_cap && !grow_stacks()) return -1;
  struct Stack* s = &stacks[nstacks];
  s->hash = h;
  s->depth = depth;
  memcpy(s->pc, pc, (size_t)depth * sizeof *pc);
  s->live = 0;
  s->at_peak = 0;
  index_insert((uint32_t)nstacks);
  return (long)nstacks++;
}

/* ---- the block table (under mu) ---- */

static size_t slot_of(uintptr_t addr) { return mix(addr) & (block_cap - 1); }

static void place(struct Block b) {
  size_t at = slot_of(b.addr);
  while (blocks[at].addr != 0) at = (at + 1) & (block_cap - 1);
  blocks[at] = b;
}

static int grow_blocks(void) {
  const size_t old_cap = block_cap;
  struct Block* old = blocks;
  const size_t cap = old_cap ? old_cap * 2 : 1 << 16;
  struct Block* b = grab(cap * sizeof *b);
  if (b == NULL) return 0;
  blocks = b;
  block_cap = cap;
  for (size_t i = 0; i < old_cap; ++i) {
    if (old[i].addr != 0) place(old[i]);
  }
  if (old != NULL) munmap(old, old_cap * sizeof *old);
  return 1;
}

/* Remove the block at `addr`; 0 when it was never recorded. Backward-shift
 * deletion keeps every probe chain unbroken without tombstones. */
static int take_block(uintptr_t addr, struct Block* out) {
  if (block_cap == 0) return 0;
  size_t at = slot_of(addr);
  while (blocks[at].addr != addr) {
    if (blocks[at].addr == 0) return 0;
    at = (at + 1) & (block_cap - 1);
  }
  *out = blocks[at];
  size_t hole = at;
  for (size_t next = (hole + 1) & (block_cap - 1); blocks[next].addr != 0;
       next = (next + 1) & (block_cap - 1)) {
    const size_t home = slot_of(blocks[next].addr);
    /* Move `next` into the hole unless its home lies cyclically in (hole, next]. */
    const int stays = hole <= next ? (hole < home && home <= next)
                                   : (hole < home || home <= next);
    if (!stays) {
      blocks[hole] = blocks[next];
      hole = next;
    }
  }
  blocks[hole].addr = 0;
  nblocks--;
  return 1;
}

/* ---- accounting ---- */

static void snapshot(void) {
  for (size_t i = 0; i < nstacks; ++i) stacks[i].at_peak = stacks[i].live;
  snap = live;
}

static void record(void* p, size_t size) {
  if (p == NULL || !enabled || busy) return;
  busy = 1;
  void* pc[kDepth];
  const int depth = backtrace(pc, kDepth);
  pthread_mutex_lock(&mu);
  const long id = find_stack(pc, depth);
  if (id >= 0 && ((nblocks + 1) * 2 <= block_cap || grow_blocks())) {
    place((struct Block){(uintptr_t)p, size, (uint32_t)id});
    nblocks++;
    stacks[id].live += size;
    live += size;
    if (live > peak) {
      peak = live;
      rising = 1;
    }
  }
  pthread_mutex_unlock(&mu);
  busy = 0;
}

static void forget(void* p) {
  if (p == NULL || !enabled) return;
  pthread_mutex_lock(&mu);
  struct Block b;
  if (take_block((uintptr_t)p, &b)) {
    /* Still at the high-water mark the last allocation set: copy it out
     * before this free lowers it, once it has grown by 1/128. */
    if (rising && peak - snap >= (peak >> kPeakStepShift)) snapshot();
    rising = 0;
    stacks[b.stack].live -= b.size;
    live -= b.size;
  }
  pthread_mutex_unlock(&mu);
}

/* ---- the interposed allocator ---- */

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  record(p, size);
  return p;
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  record(p, n * size);
  return p;
}

void* realloc(void* old, size_t size) {
  forget(old); /* before its address can be handed out again */
  void* p = __libc_realloc(old, size);
  record(p, size);
  return p;
}

void free(void* p) {
  forget(p);
  __libc_free(p);
}

void* memalign(size_t align, size_t size) {
  void* p = __libc_memalign(align, size);
  record(p, size);
  return p;
}

void* aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

int posix_memalign(void** out, size_t align, size_t size) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) return EINVAL;
  void* p = memalign(align, size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

void* valloc(size_t size) { return memalign((size_t)sysconf(_SC_PAGESIZE), size); }

/* ---- dump ---- */

static void dump(void) {
  if (!enabled || dumped) return;
  busy = 1;
  pthread_mutex_lock(&mu);
  dumped = 1;
  if (rising) snapshot(); /* ending at the peak */
  const int fd = open_dump(".heap");
  if (fd >= 0) {
    char line[kDepth * 18 + 64];
    char* at = line;
    memcpy(at, "# peak ", 7);
    at = dec(at + 7, peak);
    memcpy(at, " snapshot ", 10);
    at = dec(at + 10, snap);
    *at++ = '\n';
    put(fd, line, (size_t)(at - line));
    for (size_t i = 0; i < nstacks; ++i) {
      if (stacks[i].at_peak == 0) continue;
      at = dec(line, stacks[i].at_peak);
      for (int d = 0; d < stacks[i].depth; ++d) {
        *at++ = ' ';
        at = hex(at, (unsigned long)stacks[i].pc[d]);
      }
      *at++ = '\n';
      put(fd, line, (size_t)(at - line));
    }
    close(fd);
    write_maps();
  }
  pthread_mutex_unlock(&mu);
}

static void before_fork(void) { pthread_mutex_lock(&mu); }
static void after_fork_parent(void) { pthread_mutex_unlock(&mu); }
static void after_fork_child(void) {
  /* The child's heap starts as the parent's: keep the live bytes, restart
   * the peak from them. */
  peak = live;
  snap = 0;
  rising = 1;
  for (size_t i = 0; i < nstacks; ++i) stacks[i].at_peak = 0;
  dumped = 0;
  pthread_mutex_unlock(&mu);
}

__attribute__((constructor)) static void start(void) {
  if (!read_out_prefix(getenv("FTMR_PROF_OUT"))) return;
  busy = 1;
  void* warm[4];
  (void)backtrace(warm, 4); /* loads the unwinder, which allocates */
  busy = 0;
  pthread_atfork(before_fork, after_fork_parent, after_fork_child);
  enabled = 1;
}

__attribute__((destructor)) static void stop(void) { dump(); }

/* Forked children exit here, past every atexit handler. */
void _exit(int status) {
  dump();
  syscall(SYS_exit_group, status);
  __builtin_unreachable();
}
