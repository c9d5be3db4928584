/* dump.h — the dump writers that sampler.c and heap.c share.
 *
 * A profiled process writes its dumps from an interposed _exit() or a
 * library destructor, so nothing here allocates: the writers format into
 * stack buffers and write(2) them. Each dump file is
 * <FTMR_PROF_OUT>.<pid><suffix>, and write_maps() puts a copy of
 * /proc/self/maps beside it, which symbolize.py needs to map addresses back
 * to their binaries.
 */
#ifndef FTMR_PROF_DUMP_H
#define FTMR_PROF_DUMP_H

#include <fcntl.h>
#include <string.h>
#include <unistd.h>

static char out_prefix[512];

/* FTMR_PROF_OUT into out_prefix; 0 when it is unset, empty or too long. */
static int read_out_prefix(const char* out) {
  if (out == NULL || *out == '\0' || strlen(out) >= sizeof out_prefix) return 0;
  strcpy(out_prefix, out);
  return 1;
}

static void put(int fd, const char* s, size_t n) {
  while (n > 0) {
    const ssize_t done = write(fd, s, n);
    if (done <= 0) return;
    s += done;
    n -= (size_t)done;
  }
}

static char* hex(char* at, unsigned long v) {
  char tmp[17];
  int n = 0;
  do {
    tmp[n++] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  while (n > 0) *at++ = tmp[--n];
  return at;
}

static char* dec(char* at, unsigned long v) {
  char tmp[21];
  int n = 0;
  do {
    tmp[n++] = (char)('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *at++ = tmp[--n];
  return at;
}

static int open_dump(const char* suffix) {
  char path[600];
  char* at = path;
  const size_t len = strlen(out_prefix);
  memcpy(at, out_prefix, len);
  at += len;
  *at++ = '.';
  at = dec(at, (unsigned long)getpid());
  const size_t slen = strlen(suffix);
  memcpy(at, suffix, slen + 1);
  return open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

static void write_maps(void) {
  const int maps = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  const int fd = open_dump(".maps");
  if (maps >= 0 && fd >= 0) {
    char buf[4096];
    ssize_t n;
    while ((n = read(maps, buf, sizeof buf)) > 0) put(fd, buf, (size_t)n);
  }
  if (maps >= 0) close(maps);
  if (fd >= 0) close(fd);
}

#endif /* FTMR_PROF_DUMP_H */
