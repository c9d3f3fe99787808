#include "net/generator_pipe.hh"

#include <unistd.h>

#include <thread>
#include <vector>

#include "sim/logging.hh"

namespace indra::net
{

namespace
{

std::atomic<std::uint64_t> helpersStartedCount{0};

/**
 * Wait, on the consumer, until @p word no longer holds @p old. The
 * helper answers a stop or a new job within microseconds, less than a
 * futex sleep and wake-up take, so the consumer, which has nothing
 * else to do, polls (yielding its CPU) for a while before it sleeps.
 */
void
consumerWait(const std::atomic<std::uint32_t> &word, std::uint32_t old)
{
    constexpr int polls = 64;
    for (int i = 0; i < polls; ++i) {
        if (word.load(std::memory_order_acquire) != old)
            return;
        std::this_thread::yield();
    }
    word.wait(old, std::memory_order_acquire);
}

/**
 * A thread's pipe. A forked child holds a copy of the forking thread's
 * pipe, whose helper exists only in the parent: the child sets it
 * aside, never stopping or joining it, and starts its own. Set-aside
 * pipes stay reachable, so a leak checker in the child is quiet.
 */
struct LocalPipe
{
    std::unique_ptr<GeneratorPipe> pipe;

    void
    dropInherited()
    {
        if (pipe && pipe->ownerPid() != getpid()) {
            static auto *inherited = new std::vector<GeneratorPipe *>;
            inherited->push_back(pipe.release());
        }
    }

    ~LocalPipe() { dropInherited(); }
};

} // anonymous namespace

GeneratorPipe &
GeneratorPipe::local()
{
    thread_local LocalPipe mine;
    mine.dropInherited();
    if (!mine.pipe)
        mine.pipe = std::make_unique<GeneratorPipe>();
    return *mine.pipe;
}

GeneratorPipe::GeneratorPipe()
    : ring(std::make_unique<Chunk[]>(ringChunks)), owner(getpid())
{
}

GeneratorPipe::~GeneratorPipe()
{
    if (!started)
        return;  // never ran a request
    // A thread that exits the process from inside a request gets here
    // with the request's generator still alive and maybe in use.
    if (inJob)
        finish();
    quit = true;
    jobSeq.v.fetch_add(1);
    jobSeq.v.notify_one();
    pthread_join(helper, nullptr);
}

std::uint64_t
GeneratorPipe::helpersStarted()
{
    return helpersStartedCount.load(std::memory_order_relaxed);
}

bool
GeneratorPipe::idle() const
{
    return doneSeq.v.load(std::memory_order_acquire) ==
        jobSeq.v.load(std::memory_order_acquire);
}

std::uint32_t
GeneratorPipe::chunksReady() const
{
    return produced.v.load(std::memory_order_acquire) -
        consumed.v.load(std::memory_order_acquire);
}

// Every store another thread may be sleeping on is sequentially
// consistent: notify_one() skips the wake-up when it sees no waiter,
// which is only safe when the store cannot pass that check. The
// full-ring handshake (releaseChunk() against produce()) also reads
// the other side's count sequentially consistently: a helper that saw
// the ring full is then sure to be seen by the release that drains it
// to half.

void
GeneratorPipe::begin(RequestExecution &g)
{
    if (!started) {
        panic_if(pthread_create(&helper, nullptr, &helperMain, this) != 0,
                 "cannot start the generator pipe's helper thread");
        started = true;
        helpersStartedCount.fetch_add(1, std::memory_order_relaxed);
    }
    // The helper is idle and acknowledged its last job, so the
    // counters are ours until the job is handed over below.
    gen = &g;
    produced.v.store(0, std::memory_order_relaxed);
    consumed.v.store(0, std::memory_order_relaxed);
    stopReq.v.store(0, std::memory_order_relaxed);
    readIdx = 0;
    ended = false;
    inJob = true;
    jobs = jobSeq.v.fetch_add(1) + 1;
    jobSeq.v.notify_one();
}

const GeneratorPipe::Chunk &
GeneratorPipe::waitChunk()
{
    while (produced.v.load(std::memory_order_acquire) == readIdx)
        consumerWait(produced.v, readIdx);
    const Chunk &c = ring[readIdx % ringChunks];
    ended = c.last;
    return c;
}

void
GeneratorPipe::releaseChunk()
{
    ++readIdx;
    consumed.v.store(readIdx);
    // A helper blocked on the full ring waits for half of it to drain,
    // so it is woken once per ringChunks / 2 chunks, not per chunk.
    if (produced.v.load() - readIdx == ringChunks / 2)
        consumed.v.notify_one();
}

void
GeneratorPipe::finish()
{
    if (!ended) {
        // Stop the helper wherever it is. Changing the released count
        // wakes it if it is blocked on a full ring; it reads the stop
        // request after the count.
        stopReq.v.store(1, std::memory_order_relaxed);
        consumed.v.store(readIdx + 1);
        consumed.v.notify_one();
    }
    std::uint32_t d;
    while ((d = doneSeq.v.load(std::memory_order_acquire)) != jobs)
        consumerWait(doneSeq.v, d);
    inJob = false;
}

void *
GeneratorPipe::helperMain(void *pipe)
{
    static_cast<GeneratorPipe *>(pipe)->helperLoop();
    return nullptr;
}

void
GeneratorPipe::helperLoop()
{
    std::uint32_t seen = 0;
    for (;;) {
        std::uint32_t j;
        while ((j = jobSeq.v.load(std::memory_order_acquire)) == seen)
            jobSeq.v.wait(j, std::memory_order_acquire);
        seen = j;
        if (quit)
            return;
        produce();
        doneSeq.v.store(seen);
        doneSeq.v.notify_one();
    }
}

void
GeneratorPipe::produce()
{
    std::uint32_t p = 0;
    for (;;) {
        std::uint32_t c = consumed.v.load();
        if (p - c >= ringChunks) {
            // Full: sleep until half the ring has drained.
            while (stopReq.v.load(std::memory_order_relaxed) == 0 &&
                   p - c > ringChunks / 2) {
                consumed.v.wait(c);
                c = consumed.v.load();
            }
        }
        Chunk &ch = ring[p % ringChunks];
        std::uint32_t n = 0;
        bool more = true;
        while (n < chunkInstrs) {
            if (stopReq.v.load(std::memory_order_relaxed) != 0)
                return;
            if (!gen->next(ch.instrs[n])) {
                more = false;
                break;
            }
            ++n;
        }
        ch.count = n;
        ch.last = !more;
        produced.v.store(++p);
        produced.v.notify_one();
        if (!more)
            return;
    }
}

} // namespace indra::net
