/* A SIGPROF sampling profiler to load with LD_PRELOAD.

   HOTSPOTS_HZ (default 997) times per second of process CPU time, or
   once per scheduler tick if that is coarser, the handler records the
   interrupted program counter, the first STACK_WORDS words at the stack
   pointer, and the first OCAML_WORDS words at the OCaml stack pointer
   that the runtime saved when OCaml last called into C.  The symbolizer
   finds a runtime function's OCaml caller among them: a direct call
   (caml_modify) leaves its return address on the current stack, a call
   through caml_c_call (caml_compare, caml_hash) runs on the system stack
   and leaves it at the saved OCaml stack pointer.  At exit the samples
   go to HOTSPOTS_OUT.<pid> as text: a header of the loaded objects
   (name, load base, text range), then one line of hex words per sample.
   `symbolize.exe` reads it.

   OCaml's own [Sys.sigprof] handler cannot do this: OCaml signal
   handlers run at the next safepoint, so a sample is charged to
   wherever the program next polled, never to a runtime C function.  A
   C handler sees the real PC.  It runs on an alternate signal stack
   (SA_ONSTACK + sigaltstack): OCaml 5 runs code on heap-allocated fiber
   stacks sized for OCaml frames, with no guard page, and a signal frame
   (a few KiB of saved register state) pushed near the end of one would
   run past it.

   x86-64 Linux only; elsewhere the library loads and records nothing. */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#include <dlfcn.h>

#define CAML_INTERNALS
#define NATIVE_CODE
#include <caml/mlvalues.h>
#include <caml/domain_state.h>
#include <caml/fiber.h>

#define STACK_WORDS 48
#define OCAML_WORDS 8
#define MAX_SAMPLES (1 << 16)
#define ALT_STACK_BYTES (64 * 1024)

typedef struct {
  uintptr_t pc;
  uintptr_t words[STACK_WORDS];
  uintptr_t ocaml_words[OCAML_WORDS];
} sample;

/* The main thread's [caml_state], a thread-local the executable exports. */
static caml_domain_state **state_slot;

static sample *samples;
static volatile size_t n_samples;
static volatile size_t dropped;
static int active;

static void on_sigprof(int sig, siginfo_t *info, void *uctx)
{
  (void)sig;
  (void)info;
#if defined(__x86_64__) && defined(__linux__)
  size_t i = n_samples;
  if (i >= MAX_SAMPLES) {
    dropped++;
    return;
  }
  ucontext_t *uc = uctx;
  const uintptr_t *sp = (const uintptr_t *)uc->uc_mcontext.gregs[REG_RSP];
  sample *s = &samples[i];
  s->pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  memcpy(s->words, sp, sizeof s->words);
  caml_domain_state *st = state_slot ? *state_slot : NULL;
  if (st && st->current_stack && st->current_stack->sp)
    memcpy(s->ocaml_words, st->current_stack->sp, sizeof s->ocaml_words);
  else
    memset(s->ocaml_words, 0, sizeof s->ocaml_words);
  n_samples = i + 1;
#else
  (void)uctx;
#endif
}

static int write_object(struct dl_phdr_info *info, size_t size, void *data)
{
  (void)size;
  FILE *f = data;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
      uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
      /* The first object is the executable, whose name is empty. */
      fprintf(f, "object %lx %lx %lx %s\n", (unsigned long)info->dlpi_addr,
              (unsigned long)lo, (unsigned long)(lo + ph->p_memsz),
              info->dlpi_name[0] ? info->dlpi_name : "[exe]");
    }
  }
  return 0;
}

__attribute__((destructor)) static void hotspots_stop(void)
{
  if (!active) return;
  active = 0;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  const char *prefix = getenv("HOTSPOTS_OUT");
  char path[4096];
  snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "hotspots", (int)getpid());
  FILE *f = fopen(path, "w");
  if (!f) {
    perror("hotspots: cannot write samples");
    return;
  }
  fprintf(f, "hotspots 2 %d %d\n", STACK_WORDS, OCAML_WORDS);
  dl_iterate_phdr(write_object, f);
  fprintf(f, "dropped %lu\n", (unsigned long)dropped);
  for (size_t i = 0; i < n_samples; i++) {
    fprintf(f, "%lx", (unsigned long)samples[i].pc);
    for (int j = 0; j < STACK_WORDS; j++)
      fprintf(f, " %lx", (unsigned long)samples[i].words[j]);
    for (int j = 0; j < OCAML_WORDS; j++)
      fprintf(f, " %lx", (unsigned long)samples[i].ocaml_words[j]);
    fputc('\n', f);
  }
  fclose(f);
}

__attribute__((constructor)) static void hotspots_start(void)
{
#if defined(__x86_64__) && defined(__linux__)
  if (!getenv("HOTSPOTS_OUT")) return;
  const char *hz_env = getenv("HOTSPOTS_HZ");
  long hz = hz_env ? atol(hz_env) : 997;
  if (hz < 1 || hz > 10000) hz = 997;
  samples = mmap(NULL, MAX_SAMPLES * sizeof(sample), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) return;
  state_slot = dlsym(RTLD_DEFAULT, "caml_state");
  stack_t alt;
  alt.ss_sp = malloc(ALT_STACK_BYTES);
  alt.ss_size = ALT_STACK_BYTES;
  alt.ss_flags = 0;
  if (!alt.ss_sp || sigaltstack(&alt, NULL) != 0) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct itimerval tv;
  tv.it_interval.tv_sec = 0;
  tv.it_interval.tv_usec = 1000000 / hz;
  tv.it_value = tv.it_interval;
  active = 1;
  setitimer(ITIMER_PROF, &tv, NULL);
#endif
}
