/*
 * pcsample: a program-counter sampler loaded with LD_PRELOAD.
 *
 * At load it arms ITIMER_PROF on its own process only (setitimer acts
 * on the calling process; nothing system-wide is touched). Each
 * period of CPU time the process consumes, SIGPROF interrupts
 * whichever of its threads is running and the handler appends that
 * thread's interrupted PC and its thread id to preallocated buffers,
 * so a profile can be split per thread (symbolize.py --by-thread).
 * The period asked
 * for is 1 ms; the kernel rounds it up to its timer tick, so the
 * effective rate is printed as samples per CPU second. At exit the PCs
 * (one "pc tid" line each, in hex and decimal) and a copy of
 * /proc/self/maps go to pcsample.<pid>.raw in the
 * working directory; symbolize.py turns that file into a flat profile.
 *
 * Unlike gprof, the samples include time spent in libm and libc, and
 * no instrumented build is needed: any binary with symbols will do
 * (line and inline detail need -g).
 *
 *   cc -O2 -shared -fPIC -o pcsample.so scripts/pcsample/pcsample.c
 *   LD_PRELOAD=$PWD/pcsample.so ./some_binary args...
 *   python3 scripts/pcsample/symbolize.py pcsample.<pid>.raw
 *   python3 scripts/pcsample/symbolize.py --by-thread pcsample.<pid>.raw
 */

#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

/* One hour of CPU time at 1 kHz; later samples are counted, not kept. */
#define PCSAMPLE_CAPACITY (3600u * 1000u)
#define PCSAMPLE_PERIOD_US 1000

static uintptr_t *samples;
static pid_t *threads;
static atomic_uint taken;
static atomic_uint dropped;

static uintptr_t
interruptedPc(void *uc_void)
{
    ucontext_t *uc = (ucontext_t *)uc_void;
#if defined(__x86_64__)
    return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pcsample: no PC accessor for this architecture"
#endif
}

static void
onProf(int sig, siginfo_t *info, void *uc)
{
    (void)sig;
    (void)info;
    unsigned slot = atomic_fetch_add(&taken, 1);
    if (slot < PCSAMPLE_CAPACITY) {
        samples[slot] = interruptedPc(uc);
        /* A raw syscall: async-signal-safe, and older glibcs lack
         * gettid(). */
        threads[slot] = (pid_t)syscall(SYS_gettid);
    } else
        atomic_fetch_add(&dropped, 1);
}

__attribute__((constructor)) static void
pcsampleStart(void)
{
    samples = calloc(PCSAMPLE_CAPACITY, sizeof(*samples));
    threads = calloc(PCSAMPLE_CAPACITY, sizeof(*threads));
    if (!samples || !threads) {
        free(samples);
        samples = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval period;
    period.it_interval.tv_sec = 0;
    period.it_interval.tv_usec = PCSAMPLE_PERIOD_US;
    period.it_value = period.it_interval;
    setitimer(ITIMER_PROF, &period, NULL);
}

__attribute__((destructor)) static void
pcsampleStop(void)
{
    if (!samples)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);

    char path[64];
    snprintf(path, sizeof(path), "pcsample.%ld.raw", (long)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    /* The memory map first, so the symbolizer can place every PC. */
    fprintf(out, "# maps\n");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof(line), maps))
            fputs(line, out);
        fclose(maps);
    }
    unsigned n = atomic_load(&taken);
    if (n > PCSAMPLE_CAPACITY)
        n = PCSAMPLE_CAPACITY;
    struct timespec cpu;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    double cpu_s = (double)cpu.tv_sec + (double)cpu.tv_nsec * 1e-9;
    fprintf(out, "# samples %u dropped %u cpu_s %.3f per_cpu_s %.0f\n",
            n, atomic_load(&dropped), cpu_s, cpu_s > 0 ? n / cpu_s : 0.0);
    for (unsigned i = 0; i < n; ++i)
        fprintf(out, "%lx %ld\n", (unsigned long)samples[i],
                (long)threads[i]);
    fclose(out);
}
