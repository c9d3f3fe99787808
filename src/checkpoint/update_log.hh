/**
 * @file
 * DIRA-style memory update logging (Smirnov & Chiueh [28]; Table 3
 * row "memory update log"): every store appends an undo record with
 * the old value (fast backup), and recovery walks the log backwards
 * undoing each update sequentially (slow recovery — the cost is
 * proportional to the number of stores in the failed request).
 */

#ifndef INDRA_CKPT_UPDATE_LOG_HH
#define INDRA_CKPT_UPDATE_LOG_HH

#include <cstdint>
#include <vector>

#include "checkpoint/policy.hh"

namespace indra::ckpt
{

/** Per-write undo-log engine. */
class MemoryUpdateLog : public CheckpointPolicy
{
  public:
    MemoryUpdateLog(const SystemConfig &cfg, os::ProcessContext &context,
                    os::AddressSpace &space, mem::PhysicalMemory &phys,
                    mem::MemHierarchy &mem, stats::StatGroup &parent);

    const char *name() const override { return "memory-update-log"; }

    Cycles onStore(Tick tick, Pid pid, Addr vaddr,
                   std::uint32_t bytes) override;
    Cycles onLoad(Tick, Pid, Addr, std::uint32_t) override { return 0; }
    Cycles onRequestBegin(Tick tick) override;
    Cycles onFailure(Tick tick) override;
    void invalidate() override { log.clear(); }

    /** Checksum-verify every undo entry the next undo would replay. */
    bool verifyIntegrity(Tick tick) override;

    /** Undo entries currently held for the epoch. */
    std::uint64_t logSize() const { return log.size(); }

  private:
    struct UndoEntry
    {
        Addr vaddr = 0;
        std::uint32_t bytes = 0;
        std::uint64_t oldValue = 0;
        std::uint64_t sum = 0;  //!< checksum sealed at append time
    };

    /** Checksum over an entry's payload fields. */
    static std::uint64_t entryChecksum(const UndoEntry &e);

    /** Seal a freshly appended entry, then maybe corrupt it. */
    void sealEntry(UndoEntry &e);

    /** Undo entries are ~16B; four fill one 64B log line. */
    static constexpr std::uint32_t entriesPerLine = 4;

    std::vector<UndoEntry> log;
    /** Synthetic address cursor for log-buffer memory traffic. */
    Addr logCursor = 0;
    stats::Scalar statEntriesLogged;
    stats::Scalar statEntriesUndone;
};

} // namespace indra::ckpt

#endif // INDRA_CKPT_UPDATE_LOG_HH
