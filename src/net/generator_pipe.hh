/**
 * @file
 * GeneratorPipe: a request's instruction generator run ahead of the
 * core that retires its stream, on one helper thread, through a
 * bounded single-producer/single-consumer ring of instruction chunks.
 *
 * This is the simulator's own version of INDRA's decoupling: the
 * monitored core does not wait for the resurrector on every step, and
 * here the timing core does not wait for the workload front-end. The
 * result is exact because a RequestExecution reads only its draw plan
 * and program, which nothing mutates while a request runs: the
 * consumer retires exactly the instructions next() would return, in
 * the same order, and stops at the same one. Instructions drawn past
 * the stop are discarded with their generator.
 *
 * Each thread that runs requests owns one pipe (local()), whose helper
 * starts with the thread's first request and is joined at the thread's
 * exit, so helpers are bounded by request-running threads. An idle
 * helper blocks in std::atomic::wait; it never spins. The helper never
 * allocates: it writes into the ring the consumer allocated, and the
 * generator it steps reserves its frames and payload up front.
 */

#ifndef INDRA_NET_GENERATOR_PIPE_HH
#define INDRA_NET_GENERATOR_PIPE_HH

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>

#include "cpu/isa.hh"
#include "net/workload.hh"

namespace indra::net
{

class GeneratorPipe
{
  public:
    /** Instructions per chunk, and chunks in the ring. */
    static constexpr std::uint32_t chunkInstrs = 256;
    static constexpr std::uint32_t ringChunks = 8;

    /**
     * The calling thread's pipe. A forked child that inherited its
     * parent's pipe gets a fresh one: the parent's helper does not
     * exist in the child.
     */
    static GeneratorPipe &local();

    /** The helper starts with the first request run(). */
    GeneratorPipe();
    /** Stops any request in flight, then quits and joins the helper. */
    ~GeneratorPipe();

    GeneratorPipe(const GeneratorPipe &) = delete;
    GeneratorPipe &operator=(const GeneratorPipe &) = delete;

    /**
     * Draw @p gen's stream on the helper and hand each instruction, in
     * order, to @p retire (bool(const cpu::Instruction &)) on this
     * thread, until it returns false or the stream ends. Returns, or
     * unwinds, only once the helper has let go of @p gen.
     */
    template <class Retire>
    void
    run(RequestExecution &gen, Retire &&retire)
    {
        Job job(*this, gen);
        for (;;) {
            const Chunk &c = waitChunk();
            for (std::uint32_t i = 0; i < c.count; ++i) {
                if (!retire(c.instrs[i]))
                    return;  // ~Job stops the helper
            }
            const bool last = c.last;
            releaseChunk();
            if (last)
                return;
        }
    }

    /** The helper holds no request: it is blocked waiting for one. */
    bool idle() const;

    /** Filled chunks the consumer has not released (for tests). */
    std::uint32_t chunksReady() const;

    /** Process this pipe belongs to. */
    int ownerPid() const { return owner; }

    /** Helper threads started in this process: a host-side count for
     *  tests, not a stat. */
    static std::uint64_t helpersStarted();

  private:
    struct alignas(64) Chunk
    {
        std::uint32_t count = 0;
        bool last = false;  //!< the stream ended in this chunk
        cpu::Instruction instrs[chunkInstrs];
    };

    /** One request in flight: begun on construction, finished (the
     *  helper stopped if need be, and acknowledged) on destruction. */
    class Job
    {
      public:
        Job(GeneratorPipe &pipe, RequestExecution &gen) : pipe(pipe)
        {
            pipe.begin(gen);
        }
        ~Job() { pipe.finish(); }

        Job(const Job &) = delete;
        Job &operator=(const Job &) = delete;

      private:
        GeneratorPipe &pipe;
    };

    void begin(RequestExecution &gen);
    const Chunk &waitChunk();
    void releaseChunk();
    void finish();
    static void *helperMain(void *pipe);
    void helperLoop();
    void produce();

    /** An atomic on a cache line of its own. */
    struct alignas(64) Word
    {
        std::atomic<std::uint32_t> v{0};
    };

    /** Bumped by the consumer to hand the helper a job (or quit). */
    Word jobSeq;
    /** The last job the helper has let go of. */
    Word doneSeq;
    /** Chunks published / released in the current job. */
    Word produced;
    Word consumed;
    /** Nonzero: the consumer wants the current job stopped. */
    Word stopReq;

    /** Written by the consumer before the job handoff. */
    RequestExecution *gen = nullptr;
    bool quit = false;

    /** Consumer side: jobs begun, chunks released in this one, the
     *  last chunk reached, and a job begun but not finished. */
    std::uint32_t jobs = 0;
    std::uint32_t readIdx = 0;
    bool ended = false;
    bool inJob = false;

    std::unique_ptr<Chunk[]> ring;
    int owner;
    /** A raw pthread, not a std::thread: std::thread frees its start
     *  state on the new thread, and that one free() would give the
     *  helper a malloc arena of its own. */
    pthread_t helper{};
    bool started = false;
};

} // namespace indra::net

#endif // INDRA_NET_GENERATOR_PIPE_HH
